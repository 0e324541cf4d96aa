"""Per-layer spans, recorded from outside the program.

The untraced run uses :class:`Layers` with tracing off: every hook is a
plain pass-through and the service runs its default configuration.
With tracing on, the benchmark hands the program instrumented objects
through its public seams and wraps public methods on the instances it
owns:

========================  ==============================================
layer                     seam
========================  ==============================================
search (Phase 1)          ``SpatialDatabase.load(path, index=...)``: an
                          R*-tree subclass timing ``range_search_rect``
                          and the per-id ``get`` gather that follows it
filter (Phase 2)          ``ServiceConfig(strategies=[...])``: strategy
                          wrappers timing ``classify_candidates``
integrate (Phase 3)       ``ServiceConfig(integrator=...)``: a cascade
                          wrapper timing ``decide_candidates`` and
                          forwarding ``fork``
engine batch              ``service.engine.run_batch`` on the instance
monitor                   ``service.monitor.update``/``subscribe``
shard                     ``ShardPool.run``/``ShardedEngine.run_batch``
                          on a shard pass that serves the first
                          set-up's overload windows again through
                          ``db.shard(n)``
storage / build           ``SpatialDatabase.load``, first ``db.index``,
                          ``db.shard(n)``
========================  ==============================================

A span is (id, name, start, end, parent, request, thread).  The parent
is the innermost open span on the same thread; the request is the PRQ
request whose integrator fork last ran on that thread, or the update a
monitor call serves.  Spans stay in memory and are written as JSON
lines to ``.bench_build/perfbench/`` when the run ends.  Wrappers sent
to shard worker processes arrive without a recorder and record nothing
there: worker internals are not visible from outside.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core.strategies import Strategy, make_strategies
from repro.index.rtree import RStarTree
from repro.integrate.base import ProbabilityIntegrator
from repro.integrate.cascade import CascadeIntegrator
from repro.serve import ServiceConfig

TIERS = {
    "cascade-sandwich": "sandwich",
    "cascade-ruben": "ruben",
    "cascade-imhof": "imhof",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: object
    thread: int
    count: int = 0


class Recorder:
    """Thread-safe in-memory span sink (appends are atomic under the GIL)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.requests: dict[int, int] = {}
        self.tiers: dict[str, int] = {}
        #: Integrator forks: one per engine execution of a query.
        self.forks = 0
        self._tier_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self):
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, value) -> None:
        self._local.request = value

    def call(self, name, fn, *args, count=None, **kwargs):
        """Run ``fn`` inside a span named ``name``.

        ``count(result)`` gives the span's work count (0 without it).
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        self.spans.append(
            Span(
                span_id, name, start, end, parent, self.request,
                threading.get_ident(),
                count(result) if count is not None else 0,
            )
        )
        return result

    def interval(self, name, start, end, count=0) -> None:
        """Record an already-measured leaf interval on this thread."""
        stack = self._stack()
        self.spans.append(
            Span(
                next(self._ids), name, start, end,
                stack[-1] if stack else None, self.request,
                threading.get_ident(), count,
            )
        )

    def note_fork(self) -> None:
        with self._tier_lock:
            self.forks += 1

    def note_tiers(self, results) -> None:
        counts: dict[str, int] = {}
        for result in results:
            counts[result.method] = counts.get(result.method, 0) + 1
        with self._tier_lock:
            for method, n in counts.items():
                self.tiers[method] = self.tiers.get(method, 0) + n

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": s.id, "name": s.name, "start": s.start,
                            "end": s.end, "parent": s.parent,
                            "request": s.request, "thread": s.thread,
                            "count": s.count,
                        }
                    )
                    + "\n"
                )


class _Unpickled:
    """Mixin: copies sent to worker processes drop the recorder."""

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_rec"] = None
        return state


class TracedIndex(RStarTree):
    """R*-tree whose range searches and per-id gathers are timed.

    The gather that follows a search (``get`` once per returned id) is
    timed without a clock read per id: the search leaves its end time
    and id count on the thread, and the last ``get`` closes the
    interval.
    """

    def __init__(self, dim: int, recorder: Recorder):
        super().__init__(dim)
        self._rec = recorder
        self._local = threading.local()

    def range_search_rect(self, rect):
        ids = self._rec.call(
            "search", super().range_search_rect, rect, count=len
        )
        self._local.pending = self._local.total = len(ids)
        self._local.since = time.perf_counter()
        return ids

    def get(self, obj_id):
        point = super().get(obj_id)
        local = self._local
        pending = getattr(local, "pending", 0)
        if pending:
            local.pending = pending - 1
            if pending == 1:
                self._rec.interval(
                    "gather", local.since, time.perf_counter(), local.total
                )
        return point


class TracedStrategy(_Unpickled, Strategy):
    """Delegates to a real strategy, timing ``classify_candidates``."""

    def __init__(self, inner: Strategy, recorder: Recorder | None):
        self.inner = inner
        self.name = inner.name
        self._rec = recorder

    def prepare(self, query):
        self.inner.prepare(query)

    def search_rect(self):
        return self.inner.search_rect()

    def classify(self, points):
        return self.inner.classify(points)

    def classify_many(self, points):
        return self.inner.classify_many(points)

    def classify_candidates(self, ids, points):
        if self._rec is None:
            return self.inner.classify_candidates(ids, points)
        return self._rec.call(
            "filter", self.inner.classify_candidates, ids, points, count=len
        )

    def clone(self):
        return TracedStrategy(self.inner.clone(), self._rec)

    @property
    def proves_empty(self) -> bool:
        return self.inner.proves_empty

    def __getattr__(self, name):
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


class TracedIntegrator(_Unpickled, ProbabilityIntegrator):
    """Delegates to an integrator, timing ``decide_candidates``.

    ``fork`` returns a traced fork and marks the request it serves: the
    service forks once per request from the request's fingerprint seed.
    """

    def __init__(self, inner: ProbabilityIntegrator, recorder: Recorder | None):
        self.inner = inner
        self.name = inner.name
        self.obs = None
        self._rec = recorder

    def qualification_probability(self, gaussian, point, delta):
        return self.inner.qualification_probability(gaussian, point, delta)

    def qualification_probabilities(self, gaussian, points, delta):
        return self.inner.qualification_probabilities(gaussian, points, delta)

    def decide(self, gaussian, points, delta, theta):
        return self.inner.decide(gaussian, points, delta, theta)

    def decide_candidates(self, gaussian, ids, points, delta, theta):
        rec = self._rec
        if rec is None:
            return self.inner.decide_candidates(gaussian, ids, points, delta, theta)
        decided = rec.call(
            "integrate", self.inner.decide_candidates,
            gaussian, ids, points, delta, theta,
            count=lambda _: len(ids),
        )
        rec.note_tiers(decided[2])
        return decided

    @property
    def composition_independent(self) -> bool:
        return self.inner.composition_independent

    @property
    def cost_per_candidate(self) -> float:
        return self.inner.cost_per_candidate

    def fork(self, seed):
        rec = self._rec
        if rec is not None:
            rec.note_fork()
            request = rec.requests.get(getattr(seed, "entropy", None))
            if request is not None:
                rec.request = request
        return TracedIntegrator(self.inner.fork(seed), rec)


def _wrap_method(recorder, owner, attr, name):
    """Time ``owner.attr`` on this instance; the span counts the items of
    its first argument (tasks, queries)."""
    method = getattr(owner, attr)

    def wrapped(items, *args, **kwargs):
        return recorder.call(
            name, method, items, *args, count=lambda _: len(items), **kwargs
        )

    setattr(owner, attr, wrapped)


class Layers:
    """The benchmark's hooks into each layer; inert when tracing is off."""

    def __init__(self, trace: bool):
        self.trace = bool(trace)
        self.rec = Recorder() if self.trace else None
        self.setup_spans: dict[str, list[float]] = {}
        self._windows: list[tuple[int, int]] = []
        self._deltas: dict[str, int] = {}
        self._shard_windows: list[tuple[int, int]] = []

    # -- set-up seams --------------------------------------------------

    def timed(self, name, fn, *args, **kwargs):
        """Call a set-up step; traced, keep its duration under ``name``."""
        if not self.trace:
            return fn(*args, **kwargs)
        started = time.perf_counter()
        result = self.rec.call(name, fn, *args, **kwargs)
        self.setup_spans.setdefault(name, []).append(time.perf_counter() - started)
        return result

    def index(self):
        return TracedIndex(2, self.rec) if self.trace else None

    def service_config(self):
        if not self.trace:
            return None
        return ServiceConfig(
            strategies=[TracedStrategy(s, self.rec) for s in make_strategies("all")],
            integrator=TracedIntegrator(CascadeIntegrator(), self.rec),
        )

    def instrument_shards(self, sharded) -> None:
        if self.trace:
            _wrap_method(self.rec, sharded.pool, "run", "shard.pool_run")

    def instrument_service(self, service) -> None:
        if not self.trace:
            return
        _wrap_method(self.rec, service.engine, "run_batch", "engine.run_batch")
        monitor = service.monitor
        rec = self.rec
        subscribe, update = monitor.subscribe, monitor.update

        def traced_subscribe(*args, **kwargs):
            return rec.call("monitor.subscribe", subscribe, *args, **kwargs)

        def traced_update(sub, mean, *args, **kwargs):
            rec.request = f"update:{sub}"
            return rec.call("monitor.update", update, sub, mean, *args, **kwargs)

        monitor.subscribe = traced_subscribe
        monitor.update = traced_update

    def register_requests(self, requests) -> None:
        """Map each request's fork seed to its id for span attribution."""
        if self.trace:
            for request in requests:
                if request is not None:
                    entropy = int(request.seed_sequence().entropy)
                    self.rec.requests[entropy] = request.request_id

    def traffic(self, deployment, drive, phase):
        """Run ``drive(deployment.service, phase, self)``; with tracing on,
        keep its spans and the program's counter deltas for
        :meth:`metrics`."""
        if not self.trace:
            return drive(deployment.service, phase, self)
        before = self._counters(deployment)
        first = len(self.rec.spans)
        record = drive(deployment.service, phase, self)
        self._windows.append((first, len(self.rec.spans)))
        after = self._counters(deployment)
        for key, value in after.items():
            self._deltas[key] = self._deltas.get(key, 0) + value - before.get(key, 0)
        return record

    def shard_traffic(self, service, drive, phase):
        """Run ``drive(service, phase, self)`` on a sharded service and keep
        its spans apart: they feed only the shard metrics."""
        first = len(self.rec.spans)
        record = drive(service, phase, self)
        self._shard_windows.append((first, len(self.rec.spans)))
        return record

    def _counters(self, deployment) -> dict:
        snap = deployment.service.snapshot()
        index = deployment.database.index.stats
        counters = {
            "submitted": snap.submitted,
            "overloaded": snap.overloaded,
            "degraded": snap.degraded,
            "cache_hits": snap.cache_hits,
            "deduplicated": snap.deduplicated,
            "node_accesses": index.node_accesses,
            "index_queries": index.queries,
        }
        monitor = deployment.service.monitor.stats()
        for key in ("updates", "survived", "reintegrated", "replanned"):
            counters[f"monitor.{key}"] = monitor[key]
        for method, n in self.rec.tiers.items():
            counters[f"tier.{method}"] = n
        counters["forks"] = self.rec.forks
        return counters

    # -- metrics -------------------------------------------------------

    def metrics(self, records, path) -> dict:
        """Per-layer metrics over the traffic windows (empty untraced)."""
        if not self.trace:
            return {}
        rec = self.rec
        rec.write(path)
        spans = [s for a, b in self._windows for s in rec.spans[a:b]]
        shard_spans = [s for a, b in self._shard_windows for s in rec.spans[a:b]]
        by_id = {s.id: s for s in spans + shard_spans}
        child_time: dict[int, float] = {}
        for s in by_id.values():
            if s.parent in by_id:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
        named: dict[str, list[Span]] = {}
        for s in spans:
            named.setdefault(s.name, []).append(s)
        shard_named: dict[str, list[Span]] = {}
        for s in shard_spans:
            shard_named.setdefault(s.name, []).append(s)

        def self_ms(s):
            return (s.end - s.start - child_time.get(s.id, 0.0)) * 1e3

        def total_ms(name):
            return sum(self_ms(s) for s in named.get(name, ()))

        def count(name):
            return sum(s.count for s in named.get(name, ()))

        def pct(values, q):
            return float(np.percentile(values, q)) if len(values) else 0.0

        def mean(values):
            return float(np.mean(values)) if len(values) else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        d = self._deltas
        def executed_in(recs):
            return [
                r
                for record in recs
                for r in record.responses
                if getattr(r, "batch_size", 0) > 0 and r.stats is not None
            ]

        executed = executed_in(records)
        nominal_executed = executed_in(records[0::2])
        overload_executed = executed_in(records[1::2])
        retrieved = sum(r.stats.retrieved for r in executed)
        results = sum(r.stats.results for r in executed)
        decided = sum(
            r.stats.total_rejected + r.stats.accepted_without_integration
            for r in executed
        )
        # Queue waits matter for latency (nominal windows), batch sizes
        # for throughput (overload window).
        waits = [r.queued_seconds * 1e3 for r in nominal_executed]
        queries = d.get("forks", 0)
        integrated = count("integrate")
        tiers = {m: d.get(f"tier.{m}", 0) for m in TIERS}
        updates = [self_ms(s) for s in named.get("monitor.update", ())]
        pool_runs = [
            (s.end - s.start) * 1e3 for s in shard_named.get("shard.pool_run", ())
        ]
        batches = shard_named.get("engine.run_batch", ())
        setup = {k: float(np.median(v)) for k, v in self.setup_spans.items()}
        subscribes = [
            (s.end - s.start) * 1e3 for s in rec.spans if s.name == "monitor.subscribe"
        ]
        ops = sum(len(r.responses) for r in records)
        values = {
            "serve.queue_wait_p50_ms": (pct(waits, 50), "ms"),
            "serve.queue_wait_p95_ms": (pct(waits, 95), "ms"),
            "serve.batch_size_mean": (
                mean([r.batch_size for r in overload_executed]), "count"
            ),
            "serve.shed_frac": (ratio(d["overloaded"], d["submitted"]), "fraction"),
            "serve.degraded_frac": (ratio(d["degraded"], d["submitted"]), "fraction"),
            "serve.cache_hit_frac": (
                ratio(d["cache_hits"], d["submitted"]), "fraction"
            ),
            "serve.dedup_frac": (ratio(d["deduplicated"], d["submitted"]), "fraction"),
            "search.ms_per_query": (ratio(total_ms("search"), queries), "ms"),
            "search.gather_ms_per_query": (ratio(total_ms("gather"), queries), "ms"),
            "search.candidates_per_query": (ratio(count("search"), queries), "count"),
            "index.node_accesses_per_query": (
                ratio(d["node_accesses"], d["index_queries"]), "count"
            ),
            "search.result_frac": (ratio(results, retrieved), "fraction"),
            "filter.ms_per_query": (ratio(total_ms("filter"), queries), "ms"),
            "filter.decided_frac": (ratio(decided, retrieved), "fraction"),
            "integrate.ms_per_query": (ratio(total_ms("integrate"), queries), "ms"),
            "integrate.candidates_per_query": (ratio(integrated, queries), "count"),
            "integrate.us_per_candidate": (
                ratio(total_ms("integrate") * 1e3, integrated), "us"
            ),
            **{
                f"integrate.tier_frac.{short}": (
                    ratio(tiers[method], sum(tiers.values())), "fraction"
                )
                for method, short in TIERS.items()
            },
            "monitor.update_self_p50_ms": (pct(updates, 50), "ms"),
            "monitor.update_self_p95_ms": (pct(updates, 95), "ms"),
            "monitor.subscribe_ms": (mean(subscribes), "ms"),
            "monitor.survive_frac": (
                ratio(d["monitor.survived"], d["monitor.updates"]), "fraction"
            ),
            "monitor.reintegrate_frac": (
                ratio(d["monitor.reintegrated"], d["monitor.updates"]), "fraction"
            ),
            "monitor.replan_frac": (
                ratio(d["monitor.replanned"], d["monitor.updates"]), "fraction"
            ),
            "shard.pool_run_ms_per_batch": (mean(pool_runs), "ms"),
            "shard.coordinator_ms_per_batch": (
                mean([self_ms(s) for s in batches]), "ms"
            ),
            "shard.fanout_mean": (
                ratio(
                    sum(s.count for s in shard_named.get("shard.pool_run", ())),
                    sum(s.count for s in batches),
                ),
                "count",
            ),
            "storage.load_ms": (setup.get("storage.load", 0.0) * 1e3, "ms"),
            "index.build_s": (setup.get("index.build", 0.0), "s"),
            "shard.spawn_s": (setup.get("shard.spawn", 0.0), "s"),
            "trace.spans_per_op": (ratio(len(spans), ops), "count"),
            "trace.overhead_ms_per_op": (
                ratio(len(spans), ops) * self._span_cost_ms(), "ms"
            ),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def _span_cost_ms(self) -> float:
        """Measured cost of recording one span around a no-op call."""
        scratch = Recorder()
        n = 20000
        started = time.perf_counter()
        for _ in range(n):
            scratch.call("calibrate", int)
        return (time.perf_counter() - started) / n * 1e3

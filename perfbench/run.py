"""Service benchmark for the repro PRQ engine.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

One run drives the real threaded ``QueryService`` of one workload
(``perfbench/workloads.json``) from this process.  It sets the service
up ``setup_repeats`` times; each set-up is timed and then serves
``windows_per_setup`` pairs of a nominal window, where latency is
measured, and an overload window, where throughput is measured.  In a
nominal window one client sends each request when the previous one has
answered (closed loop); an overload window sends open-loop on a
Poisson schedule far above capacity.  Many short windows spread the
samples over the whole run.  Every answer is checked against the default engine
afterwards, off the clock.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` the run wraps each layer's public entry points with spans
(``perfbench/layers.py``) and reports the per-layer metrics instead.
The line before it is a fuller report: every metric with its unit, the
sample counts behind each percentile, the injector's lateness, the
answer tallies and the environment.

The program is imported from ``src/`` of the checkout.  Compiled kernels
and temporary files go to ``.bench_build/`` inside the checkout.  The
run exits non-zero, without a result line, when ``src/`` is missing or
the generated inputs do not match ``perfbench/digests.json``; it exits
1 after printing its result when any answer is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _prepare_environment() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: no program source at {ROOT / 'src' / 'repro'}; run "
            "from the root of a full checkout"
        )
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    # Keep the kernel compile cache and compiler scratch inside the
    # checkout; shard workers inherit the environment.
    os.environ["REPRO_KERNEL_CACHE"] = str(BUILD / "kernels")
    os.environ["TMPDIR"] = str(BUILD / "tmp")
    sys.path.insert(0, str(ROOT / "src"))


def _vm_hwm_mb(pid="self") -> float:
    """Peak resident set (VmHWM) of one process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise SystemExit("error: VmHWM missing from /proc status")


def _pct(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else float("nan")


class Deployment:
    """One set-up of the workload's service, ready for traffic.

    Construction is the timed set-up: load the store, force the index
    build, start the service, register the standing queries and send
    the warm-up requests.
    """

    def __init__(self, path, workload, inputs, layers):
        from repro.core.database import SpatialDatabase

        started = time.perf_counter()
        self.database = layers.timed(
            "storage.load", SpatialDatabase.load, path, index=layers.index()
        )
        layers.timed("index.build", lambda: self.database.index)
        self.service = self.database.serve(layers.service_config())
        layers.instrument_service(self.service)
        subs = inputs.subscriptions
        for s in range(len(subs) if subs is not None else 0):
            response = self.service.monitor.subscribe(
                _gaussian(subs.centers[s], subs.sigmas[s]),
                float(subs.deltas[s]),
                float(subs.thetas[s]),
                subscription_id=s,
            )
            if response.status != "ok":
                raise SystemExit(f"error: subscribe {s} failed: {response.error}")
        _warm_up(self.service, inputs, layers)
        self.seconds = time.perf_counter() - started

    def close(self) -> None:
        self.service.close()


def _warm_up(service, inputs, layers) -> None:
    warmup = _requests(inputs.warmup)
    layers.register_requests(warmup)
    for future in [service.submit(r) for r in warmup]:
        future.result()


def _shard_pass(database, shards, inputs, phases, layers):
    """Traced runs only: serve ``phases`` once more through
    ``database.shard(shards)``, so the shard layer (scatter, IPC, merge)
    is measured on this workload's traffic.  Returns their records."""
    sharded = layers.timed("shard.spawn", database.shard, shards)
    try:
        layers.instrument_shards(sharded)
        service = sharded.serve(layers.service_config())
        try:
            layers.instrument_service(service)
            _warm_up(service, inputs, layers)
            return [layers.shard_traffic(service, _drive, p) for p in phases]
        finally:
            service.close()
    finally:
        sharded.close()


def _gaussian(center, sigma):
    from repro.gaussian.distribution import Gaussian

    return Gaussian(center, sigma)


def _requests(phase) -> list:
    """Client-side request objects, built before the phase starts
    (``None`` for location updates)."""
    from repro.serve import PRQRequest

    return [
        None
        if phase.subs[i] >= 0
        else PRQRequest(
            _gaussian(phase.centers[i], phase.sigmas[i]),
            float(phase.deltas[i]),
            float(phase.thetas[i]),
            request_id=f"{phase.name}:{i}",
        )
        for i in range(len(phase))
    ]


def _drive(service, phase, layers):
    import openloop

    requests = _requests(phase)
    layers.register_requests(requests)
    # Location updates answer synchronously, so one client thread sends
    # them in order; the injector only hands them over.
    with ThreadPoolExecutor(1, thread_name_prefix="perfbench-update") as updates:

        def send(i):
            sub = int(phase.subs[i])
            if sub < 0:
                return service.submit(requests[i])
            return updates.submit(service.monitor.update, sub, phase.centers[i])

        if phase.closed:
            return openloop.run_closed(phase, send)
        return openloop.run_phase(phase, send)


def _environment(args) -> dict:
    import numpy as np

    from repro import kernels

    return {
        "kernel_backend": kernels.backend(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _run_traffic(path, workload, inputs, layers):
    """Set up ``setup_repeats`` times; drive ``windows_per_setup``
    (nominal, overload) window pairs on each set-up.

    Returns the records in phase order, the set-up times and the
    database of the last set-up.
    """
    per_setup = 2 * workload["windows_per_setup"]
    records, setup_seconds = [], []
    for first in range(0, len(inputs.phases), per_setup):
        deployment = Deployment(path, workload, inputs, layers)
        try:
            setup_seconds.append(deployment.seconds)
            for phase in inputs.phases[first : first + per_setup]:
                records.append(layers.traffic(deployment, _drive, phase))
        finally:
            deployment.close()
    return records, setup_seconds, deployment.database


def main(argv=None) -> int:
    args = _parse(argv)
    _prepare_environment()
    import numpy as np

    import layers as layers_mod
    import verify
    import workloads

    name = args.workload
    w = workloads.spec(name)
    points = workloads.database_points(name)
    workloads.check_digests(name, points)
    inputs = workloads.generate(name, args.seed, args.seconds, points)

    from repro.core.database import SpatialDatabase
    from repro.integrate.cascade import CascadeIntegrator

    path = BUILD / f"{name}-{os.getpid()}.soa"
    SpatialDatabase(points, defer_index=True).save(path)
    layers = layers_mod.Layers(args.trace)
    try:
        records, setup_seconds, database = _run_traffic(path, w, inputs, layers)
        # Peak RSS of the untraced traffic, before any shard pass.
        peak_rss = _vm_hwm_mb()
        # The overload windows of the first set-up.
        shard_phases = inputs.phases[1 : 2 * w["windows_per_setup"] : 2]
        shard_records = []
        if args.trace and w["shard_pass"]:
            shard_records = _shard_pass(
                database, w["shard_pass"], inputs, shard_phases, layers
            )
        cache = BUILD / (
            f"reference-{name}-"
            f"{verify.source_digest(ROOT / 'src')[:16]}-"
            f"{workloads.pool_digest(inputs)[:16]}.json"
        )
        reference = verify.reference_answers(
            database.engine(integrator=CascadeIntegrator()), inputs.phases, cache
        )
    finally:
        path.unlink(missing_ok=True)
    tallies = [
        verify.check(phase, record, reference)
        for phase, record in zip(inputs.phases, records)
    ]
    tallies += [
        verify.check(phase, record, reference)
        for phase, record in zip(shard_phases, shard_records)
    ]
    nominal, overload = records[0::2], records[1::2]
    nominal_tally = verify.Tally.combine(tallies[0 : len(records) : 2])
    overload_tally = verify.Tally.combine(tallies[1 : len(records) : 2])
    latency = np.concatenate([r.latency for r in nominal]) * 1e3
    answered = np.array([x.ok for r in nominal for x in r.responses], dtype=bool)
    is_update = np.concatenate([p.subs for p in inputs.phases[0::2]]) >= 0
    q_lat = latency[answered & ~is_update]
    u_lat = latency[answered & is_update]
    # The latency population is the workload's working operation: PRQs,
    # or on fleet the location updates (its PRQs are cache hits).
    lat = u_lat if inputs.subscriptions is not None else q_lat
    end_to_end = {
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "latency_p50_ms": (_pct(lat, 50), "ms"),
        "latency_p95_ms": (_pct(lat, 95), "ms"),
        "throughput_qps": (
            overload_tally.answered / sum(r.elapsed for r in overload), "1/s"
        ),
        "error_rate": (nominal_tally.errors / nominal_tally.attempted, "fraction"),
    }
    if inputs.subscriptions is not None:
        end_to_end["update_p50_ms"] = (_pct(u_lat, 50), "ms")
        end_to_end["update_p95_ms"] = (_pct(u_lat, 95), "ms")
        end_to_end["prq_p50_ms"] = (_pct(q_lat, 50), "ms")
    report = {
        "workload": name,
        "environment": _environment(args),
        "overload_qps": w["overload_qps"],
        "latency_limit_ms": w["latency_limit_ms"],
        "meets_latency_limit": bool(
            end_to_end["latency_p95_ms"][0] <= w["latency_limit_ms"]
        ),
        "setup_s_each": setup_seconds,
        # Sample counts behind the percentiles.
        "samples": {
            "windows": len(nominal),
            "latency": int(lat.size),
            "prq": int(q_lat.size),
            "update": int(u_lat.size),
        },
        "injector_lag_p99_ms": {
            "nominal": _pct(np.concatenate([r.lag for r in nominal]), 99) * 1e3,
            "overload": _pct(np.concatenate([r.lag for r in overload]), 99) * 1e3,
        },
        "phases": {
            label: {
                "attempted": t.attempted,
                "answered": t.answered,
                "degraded": t.degraded,
                "wrong": t.wrong,
                "refused": t.refused,
                "elapsed_s": r.elapsed,
            }
            for label, r, t in zip(
                [r.name for r in records]
                + [f"shard-pass:{r.name}" for r in shard_records],
                [*records, *shard_records],
                tallies,
            )
        },
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": layers.metrics(
            records, BUILD / f"spans-{name}-seed{args.seed}.jsonl"
        ),
    }
    if args.trace:
        # Against latency_p50_ms of an untraced run of the same seed this
        # gives the tracing overhead end to end.
        report["per_layer"]["trace.latency_p50_ms"] = report["end_to_end"][
            "latency_p50_ms"
        ]
    print(json.dumps({"report": report}))
    wrong = sum(t.wrong for t in tallies)
    group = "per_layer" if args.trace else "end_to_end"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[group]
    result = {
        "correct": wrong == 0,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.errors for t in tallies),
        "metrics": {m["name"]: report[group][m["name"]] for m in declared},
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

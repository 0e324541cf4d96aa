"""Answer checks, computed off the clock after the service has closed.

The reference for every operation is the service's default engine
configuration (all strategies, the deterministic cascade) run through
``run_batch`` on the operation's PRQ spec.  For a location update that
spec is the standing query at its new mean, so the reference is the
cold re-evaluation the monitor promises to match.

- ``ok`` answers must equal the reference ids exactly.
- ``degraded`` answers must be sound: their ids a subset of the
  reference, and every ``(id, lo, hi)`` bound must enclose the reference
  decision (``hi >= theta`` for an object in the answer, ``lo < theta``
  for one outside it).
- Every other status is a refusal, counted but not checked.

Every run of a workload sends the same request pool (only arrival times
differ), so the reference is cached per program version under
``.bench_build/``; the first run of a workload in a checkout computes
it.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

ANSWERED = ("ok", "degraded")


@dataclass
class Tally:
    attempted: int = 0
    answered: int = 0
    wrong: int = 0
    #: Refusals by status (overloaded, deadline_exceeded, failed).
    refused: dict = field(default_factory=dict)
    degraded: int = 0

    @property
    def errors(self) -> int:
        return self.wrong + sum(self.refused.values())

    @classmethod
    def combine(cls, tallies) -> "Tally":
        total = cls()
        for t in tallies:
            total.attempted += t.attempted
            total.answered += t.answered
            total.wrong += t.wrong
            total.degraded += t.degraded
            for status, n in t.refused.items():
                total.refused[status] = total.refused.get(status, 0) + n
        return total


def _key(phase, i) -> str:
    digest = hashlib.sha256()
    digest.update(phase.centers[i].tobytes())
    digest.update(phase.sigmas[i].tobytes())
    digest.update(phase.deltas[i].tobytes())
    digest.update(phase.thetas[i].tobytes())
    return digest.hexdigest()


def source_digest(src: Path) -> str:
    """SHA-256 over every file of the program, so a cached reference is
    only reused by the exact code that computed it."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def reference_answers(engine, phases, cache: Path) -> dict:
    """Reference ids for every operation of ``phases``, keyed by spec.

    Every seed sends the same request pool, so the answers are computed
    once per program version and workload and kept in ``cache``.
    """
    from repro.core.query import ProbabilisticRangeQuery
    from repro.gaussian.distribution import Gaussian

    known = json.loads(cache.read_text()) if cache.is_file() else {}
    missing: dict = {}
    for phase in phases:
        for i in range(len(phase)):
            key = _key(phase, i)
            if key not in known and key not in missing:
                missing[key] = ProbabilisticRangeQuery(
                    Gaussian(phase.centers[i], phase.sigmas[i]),
                    float(phase.deltas[i]),
                    float(phase.thetas[i]),
                )
    if missing:
        keys = list(missing)
        batch = engine.run_batch([missing[k] for k in keys], workers=2)
        known.update({k: list(r.ids) for k, r in zip(keys, batch.results)})
        tmp = cache.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known))
        os.replace(tmp, cache)
    return {k: tuple(v) for k, v in known.items()}


def check(phase, record, reference: dict) -> Tally:
    tally = Tally(attempted=len(phase))
    for i, response in enumerate(record.responses):
        status = response.status
        if status not in ANSWERED:
            tally.refused[status] = tally.refused.get(status, 0) + 1
            continue
        tally.answered += 1
        expected = reference[_key(phase, i)]
        if status == "ok":
            good = tuple(response.ids) == expected
        else:
            tally.degraded += 1
            theta = float(phase.thetas[i])
            members = set(expected)
            good = set(response.ids) <= members and all(
                (hi >= theta) if obj in members else (lo < theta)
                for obj, lo, hi in response.bounds
            )
        tally.wrong += not good
    return tally

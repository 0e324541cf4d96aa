"""Seeded inputs for the benchmark workloads.

Every workload is a fixed road-like database plus request streams: a
warm-up stream and, for each measured phase, its operations in send
order and, for an open-loop phase, an arrival schedule with one
operation per arrival.

- The database depends only on the workload.
- Each phase's *request pool* depends on the workload, the phase and
  its length, and is drawn from ``pool_seed`` (``workloads.json``): the
  parameters are Latin-hypercube samples of the workload's population
  (each parameter's range is cut into as many strata as there are
  requests and each stratum is used once).
- ``--seed`` draws the arrival times.  An overload window with rate r
  and length T sends its pool in order at round(r·T) sorted uniform
  times, which is a Poisson process conditioned on its count.  A
  nominal window sends its round(r·T) operations closed loop, one
  after another.

Query cost is heavy-tailed (a few PRQs decide dozens of candidates in
the scalar Imhof tier), so a fresh population per seed would move the
medians by tens of percent between runs, and so would a fresh order:
under overload the service coalesces consecutive requests into batches
that finish with their slowest member.  A fixed pool in a fixed order
keeps every run on the same work; seeds differ in arrival timing, which
is what queueing depends on.

``python3 perfbench/workloads.py`` prints the SHA-256 digests that
``digests.json`` records (see :func:`digests`).
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CONFIG = json.loads((HERE / "workloads.json").read_text())
EXTENT = float(CONFIG["extent"])

#: The paper's 2-D query covariance shape (Eq. 34), scaled by gamma.
EQ34 = np.array([[7.0, 2.0 * math.sqrt(3.0)], [2.0 * math.sqrt(3.0), 3.0]])


@dataclass(frozen=True)
class Phase:
    """One measured (or warm-up) stream: operation ``i`` is due at
    ``times[i]`` seconds after the phase starts.

    Every operation carries a full PRQ spec.  For a location update
    (``subs[i] >= 0``) the spec is the subscription's standing query at
    its new mean, which is exactly the cold re-evaluation its answer is
    checked against.
    """

    name: str
    rate: float
    times: np.ndarray
    centers: np.ndarray
    sigmas: np.ndarray
    deltas: np.ndarray
    thetas: np.ndarray
    #: Subscription index per operation; -1 marks a plain PRQ.
    subs: np.ndarray
    #: Closed loop (the nominal windows): send each operation when the
    #: previous one has answered; ``times`` are then unused (zeros).
    closed: bool = False

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class Subscriptions:
    """Standing queries registered during set-up (fleet only)."""

    centers: np.ndarray
    sigmas: np.ndarray
    deltas: np.ndarray
    thetas: np.ndarray

    def __len__(self) -> int:
        return self.deltas.size


@dataclass(frozen=True)
class Inputs:
    warmup: Phase
    phases: tuple[Phase, ...]
    subscriptions: Subscriptions | None


def spec(workload: str) -> dict:
    try:
        return CONFIG["workloads"][workload]
    except KeyError:
        raise SystemExit(
            f"error: unknown workload {workload!r}; "
            f"choose from {sorted(CONFIG['workloads'])}"
        ) from None


def database_points(workload: str) -> np.ndarray:
    """The workload's fixed road-like point set (not seed-dependent)."""
    from repro.datasets.roadnet import long_beach_like

    db = spec(workload)["database"]
    net = long_beach_like(
        db["points"], seed=db["seed"], n_towns=db["towns"], extent=EXTENT
    )
    return np.ascontiguousarray(net.midpoints, dtype=np.float64)


def _rng(seed: int, *labels: str) -> np.random.Generator:
    words = [int(seed)] + [zlib.crc32(label.encode()) for label in labels]
    return np.random.default_rng(np.random.SeedSequence(words))


def _strata(rng: np.random.Generator, n: int) -> np.ndarray:
    """One uniform draw per stratum of [0, 1), in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def _log_uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return lo * (hi / lo) ** u


def _pick(u: np.ndarray, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values[np.minimum((u * values.size).astype(int), values.size - 1)]


def _paper_shapes(rng, points, n):
    """The Table I population: data-point centres, Sigma = gamma * Eq. 34."""
    p = CONFIG["paper_population"]
    centers = points[rng.integers(0, points.shape[0], size=n)]
    gammas = _pick(_strata(rng, n), p["gammas"])
    sigmas = gammas[:, None, None] * EQ34
    deltas = _log_uniform(_strata(rng, n), *p["delta"])
    thetas = _log_uniform(_strata(rng, n), *p["theta"])
    return centers, sigmas, deltas, thetas


def _arrivals(rng, rate: float, seconds: float) -> np.ndarray:
    """round(rate * seconds) arrival offsets in [0, seconds), drawn up
    front: sorted uniforms, i.e. a Poisson process given its count."""
    n = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, size=n))


def _phase(name, rate, times, shapes, subs=None, closed=False) -> Phase:
    centers, sigmas, deltas, thetas = shapes
    return Phase(
        name=name,
        rate=float(rate),
        times=times,
        centers=np.ascontiguousarray(centers, dtype=float),
        sigmas=np.ascontiguousarray(sigmas, dtype=float),
        deltas=np.ascontiguousarray(deltas, dtype=float),
        thetas=np.ascontiguousarray(thetas, dtype=float),
        subs=np.full(times.size, -1, dtype=np.int64) if subs is None else subs,
        closed=closed,
    )


def _fleet_phase(name, rate, times, rng, hot, subscriptions, positions, closed):
    """Zipf PRQs over the hot shapes interleaved with random-walk updates.

    ``positions`` holds the subscriptions' current means and advances in
    place.
    """
    f = CONFIG["workloads"]["fleet"]
    n = times.size
    ranks = np.arange(1, len(hot[3]) + 1, dtype=float)
    weights = ranks ** -f["zipf_s"]
    shape_of = rng.choice(ranks.size, size=n, p=weights / weights.sum())
    is_update = rng.random(n) < f["update_share"]
    which = rng.integers(0, len(subscriptions), size=n)
    steps = rng.normal(0.0, f["walk_step"], size=(n, 2))
    centers = hot[0][shape_of].copy()
    sigmas = hot[1][shape_of].copy()
    deltas = hot[2][shape_of].copy()
    thetas = hot[3][shape_of].copy()
    subs = np.full(n, -1, dtype=np.int64)
    for i in np.nonzero(is_update)[0]:
        s = which[i]
        positions[s] = np.clip(positions[s] + steps[i], 0.0, EXTENT)
        subs[i] = s
        centers[i] = positions[s]
        sigmas[i] = subscriptions.sigmas[s]
        deltas[i] = subscriptions.deltas[s]
        thetas[i] = subscriptions.thetas[s]
    shapes = (centers, sigmas, deltas, thetas)
    return _phase(name, rate, times, shapes, subs, closed=closed)


def generate(workload: str, seed: int, seconds: float, points=None) -> Inputs:
    """All inputs of one run; pure function of its arguments.

    The phases, in run order, are pairs of a nominal and an overload
    window (``nominal-1``, ``overload-1``, ...): ``windows_per_setup``
    pairs on each of ``setup_repeats`` freshly set-up services.  Many
    short windows spread the samples over the whole run: the host's
    speed drifts on a scale of seconds.  A window of rate r and length
    T holds round(r·T) operations; a nominal window sends them closed
    loop, one after another.
    """
    w = spec(workload)
    if points is None:
        points = database_points(workload)
    pool = CONFIG["pool_seed"]
    share = w["phase_share"]
    per_setup = w["windows_per_setup"]
    count = CONFIG["setup_repeats"] * per_setup
    windows = [
        (k, f"{kind}-{k + 1}", w[f"{kind}_qps"], seconds * share[kind] / count)
        for k in range(count)
        for kind in ("nominal", "overload")
    ]
    fleet = w["population"] == "fleet"
    if fleet:
        hot = _paper_shapes(_rng(pool, workload, "hot"), points, w["hot_shapes"])
        subscriptions = Subscriptions(
            *_paper_shapes(_rng(pool, workload, "subs"), points, w["subscriptions"])
        )
        # Warm-up: one PRQ per hot shape, so the measured PRQs run
        # against a warm cache; no updates, so every set-up's walks start
        # at the subscription centres.
        warmup = _phase("warmup", 0.0, np.zeros(len(hot[3])), hot)
    else:
        subscriptions = None
        warmup_n = CONFIG["warmup_requests"]
        shapes = _paper_shapes(_rng(pool, workload, "warmup"), points, warmup_n)
        warmup = _phase("warmup", 0.0, np.zeros(warmup_n), shapes)
    phases = []
    for k, name, rate, duration in windows:
        nominal = name.startswith("nominal")
        if nominal:
            times = np.zeros(max(1, int(round(rate * duration))))
        else:
            times = _arrivals(_rng(seed, workload, name, "t"), rate, duration)
        if fleet:
            if nominal and k % per_setup == 0:
                # The windows of one set-up share a service, so they
                # continue its walks.
                positions = subscriptions.centers.copy()
            ops = _rng(pool, workload, name, "ops")
            phases.append(
                _fleet_phase(
                    name,
                    rate,
                    times,
                    ops,
                    hot,
                    subscriptions,
                    positions,
                    closed=nominal,
                )
            )
        else:
            shapes = _paper_shapes(_rng(pool, workload, name), points, times.size)
            phases.append(
                _phase(name, rate, times, shapes, closed=nominal)
            )
    return Inputs(warmup, tuple(phases), subscriptions)




def _hash_arrays(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(str(array.dtype).encode())
        digest.update(np.asarray(array.shape, dtype=np.int64).tobytes())
        digest.update(array.tobytes())
    return digest.hexdigest()


def points_digest(points: np.ndarray) -> str:
    return _hash_arrays(points)


def pool_digest(inputs: Inputs) -> str:
    """Digest of everything but the arrival times (seed-independent)."""
    arrays = []
    for phase in (inputs.warmup, *inputs.phases):
        arrays += [
            phase.centers, phase.sigmas, phase.deltas, phase.thetas, phase.subs
        ]
    if inputs.subscriptions is not None:
        s = inputs.subscriptions
        arrays += [s.centers, s.sigmas, s.deltas, s.thetas]
    return _hash_arrays(*arrays)


def stream_digest(inputs: Inputs) -> str:
    """Digest of the whole request stream: the pool and the times."""
    times = [phase.times for phase in (inputs.warmup, *inputs.phases)]
    pool = np.frombuffer(bytes.fromhex(pool_digest(inputs)), np.uint8)
    return _hash_arrays(*times, pool)


def digests(workload: str, points=None) -> dict:
    """Digests of the database and of the reference request stream.

    The reference stream is the one drawn for ``digest_seed`` and
    ``digest_seconds`` (``workloads.json``); it stands for every seed,
    because all seeds go through the same generator code.
    """
    if points is None:
        points = database_points(workload)
    ref = generate(
        workload, CONFIG["digest_seed"], CONFIG["digest_seconds"], points
    )
    return {"points": points_digest(points), "requests": stream_digest(ref)}


def check_digests(workload: str, points: np.ndarray) -> None:
    """Refuse to run when generated inputs differ from the recorded ones."""
    recorded = json.loads((HERE / "digests.json").read_text())[workload]
    actual = digests(workload, points)
    for key, value in recorded.items():
        if actual[key] != value:
            raise SystemExit(
                f"error: {workload} {key} digest {actual[key]} does not "
                f"match the recorded {value}; the input generator changed "
                "(perfbench/digests.json)"
            )


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(HERE.parent / "src"))
    print(json.dumps({w: digests(w) for w in CONFIG["workloads"]}, indent=2))

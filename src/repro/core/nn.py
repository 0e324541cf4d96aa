"""Probabilistic nearest-neighbour queries (paper future work, Section VII).

For a Gaussian query object, the qualification probability of a target o
is P(o is among the k nearest objects to the query's true location) — a
d-dimensional integral over the query density of an indicator that depends
on *all* objects at once, so no per-object closed form exists.  We
estimate it by Monte Carlo over the query location with an index-driven
candidate cut:

1. draw n sample locations from N(q, Σ);
2. restrict attention to objects that can possibly be a k-NN of any
   sample: every object within ``max_sample_radius + kth_distance`` of q,
   where kth_distance bounds the k-th neighbour distance over samples;
3. for every sample, find its k nearest candidates (vectorised) and count
   wins per object.

The returned probabilities are unbiased binomial estimates; objects with
estimate >= θ qualify.

For k = 1 an *exact* pre-filter exists in the spirit of the paper's BF
strategy: ``P(o is NN) <= P(o beats o')`` for any single competitor o',
and "o beats o'" is the half-space event ‖x − o‖ ≤ ‖x − o'‖ — a *linear*
inequality in x, whose probability under a Gaussian is a closed-form
normal CDF (:func:`halfspace_win_probability`).  Minimizing over a few
strong competitors gives a cheap sound upper bound that prunes most
candidates before any sampling (:func:`bisector_upper_bounds`).

The same algorithm also runs through the unified stage pipeline: a
:class:`repro.core.kinds.KNNQuery` executed by any engine entry point
(``execute``, ``run_batch``, ``repro.serve``, ``repro.shard``) reproduces
:func:`probabilistic_nearest_neighbors` bit-for-bit when given the same
seed and sample budget — this module remains the reference oracle (and
returns the per-candidate probabilities, which the set-valued pipeline
result does not).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from repro.core.database import SpatialDatabase
from repro.errors import QueryError
from repro.gaussian.distribution import Gaussian
from repro.geometry.mbr import Rect

__all__ = [
    "NearestNeighborCandidate",
    "probabilistic_nearest_neighbors",
    "halfspace_win_probability",
    "bisector_upper_bounds",
]


def halfspace_win_probability(
    gaussian: Gaussian, candidate: np.ndarray, competitor: np.ndarray
) -> float:
    """Exact P(‖x − candidate‖ <= ‖x − competitor‖) for x ~ N(q, Σ).

    Expanding both squared norms, the event is the half-space
    ``2 (competitor − candidate)ᵀ x <= ‖competitor‖² − ‖candidate‖²``;
    under the Gaussian a linear functional aᵀx is N(aᵀq, aᵀΣa), so the
    probability is one normal CDF evaluation.
    """
    o = np.asarray(candidate, dtype=float)
    c = np.asarray(competitor, dtype=float)
    if o.shape != (gaussian.dim,) or c.shape != (gaussian.dim,):
        raise QueryError(
            f"candidate/competitor must have shape ({gaussian.dim},), got "
            f"{o.shape} and {c.shape}"
        )
    direction = 2.0 * (c - o)
    norm_sq = float(direction @ direction)
    if norm_sq == 0.0:
        return 1.0  # identical points: a tie counts as a win (<=)
    bound = float(c @ c - o @ o)
    mean = float(direction @ gaussian.mean)
    std = float(np.sqrt(direction @ gaussian.sigma @ direction))
    return float(special.ndtr((bound - mean) / std))


def bisector_upper_bounds(
    gaussian: Gaussian,
    candidates: np.ndarray,
    *,
    n_competitors: int = 4,
) -> np.ndarray:
    """Sound upper bounds on P(candidate is the NN), one per candidate row.

    For each candidate the bound is the minimum half-space win probability
    against its ``n_competitors`` nearest *other* candidates — any losing
    competitor disproves being the nearest neighbour, so every bound is a
    valid (conservative) upper bound on the NN probability.
    """
    pts = np.atleast_2d(np.asarray(candidates, dtype=float))
    n = pts.shape[0]
    if n == 0:
        return np.empty(0)
    if n == 1:
        return np.ones(1)
    take = min(n_competitors, n - 1)
    # Pairwise squared distances between candidates; each candidate's
    # strongest competitors are its nearest candidate neighbours.
    d2 = (
        np.einsum("ij,ij->i", pts, pts)[:, None]
        - 2.0 * pts @ pts.T
        + np.einsum("ij,ij->i", pts, pts)[None, :]
    )
    np.fill_diagonal(d2, np.inf)
    bounds = np.ones(n)
    for i in range(n):
        rivals = np.argpartition(d2[i], take - 1)[:take]
        for j in rivals:
            bounds[i] = min(
                bounds[i], halfspace_win_probability(gaussian, pts[i], pts[j])
            )
    return bounds


@dataclass(frozen=True)
class NearestNeighborCandidate:
    """One object with its estimated probability of being a k-NN."""

    obj_id: int
    probability: float
    stderr: float


def probabilistic_nearest_neighbors(
    database: SpatialDatabase,
    gaussian: Gaussian,
    k: int = 1,
    theta: float = 0.5,
    *,
    n_samples: int = 2_000,
    seed: int = 0,
) -> list[NearestNeighborCandidate]:
    """Objects that are a k-NN of the Gaussian query with probability >= θ.

    Results are sorted by descending probability.  ``n_samples`` trades
    accuracy for time; the standard error of each probability is reported.
    """
    if gaussian.dim != database.dim:
        raise QueryError(
            f"query dimension {gaussian.dim} does not match database "
            f"dimension {database.dim}"
        )
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if not 0.0 < theta < 1.0:
        raise QueryError(f"theta must lie in (0, 1), got {theta}")
    if n_samples < 10:
        raise QueryError(f"n_samples must be >= 10, got {n_samples}")
    if k > len(database):
        raise QueryError(
            f"k={k} exceeds database size {len(database)}"
        )

    rng = np.random.default_rng(seed)
    samples = gaussian.sample(n_samples, rng)

    # Candidate cut: any object that is a k-NN of some sample lies within
    # (distance from q to the farthest sample) + (k-th NN distance at q's
    # farthest sample) of q.  We bound the latter by the k-th NN distance
    # of the farthest sample itself (one extra index query).
    center = gaussian.mean
    sample_radii = np.linalg.norm(samples - center, axis=1)
    farthest = samples[int(np.argmax(sample_radii))]
    kth_distance = database.knn(farthest, k)[-1][1]
    cut_radius = float(sample_radii.max() + kth_distance + sample_radii.max())
    ids, points = database.index.range_search_points(
        Rect.from_center(center, np.full(database.dim, cut_radius))
    )
    gaps = points - center
    inside = np.einsum("ij,ij->i", gaps, gaps) <= cut_radius * cut_radius
    candidate_ids, candidate_points = ids[inside].tolist(), points[inside]
    if not candidate_ids:  # pragma: no cover - cut radius always reaches k-NNs
        raise QueryError("candidate cut returned no objects; database empty?")

    if k == 1 and len(candidate_ids) > 2:
        # Exact bisector pre-filter: candidates whose half-space upper
        # bound is already below theta cannot qualify.  They must still
        # *compete* in the per-sample argmin (removing them would hand
        # their wins to someone else), so only the reporting set shrinks —
        # but when the reporting set is small we can also shrink the
        # competitor set to winners ∪ their rivals. We keep it simple and
        # only restrict reporting.
        upper = bisector_upper_bounds(gaussian, candidate_points)
        reportable = {
            candidate_ids[i] for i in np.nonzero(upper >= theta)[0]
        }
    else:
        reportable = set(candidate_ids)

    # Vectorised k-NN per sample among the candidates.
    wins = np.zeros(len(candidate_ids), dtype=np.int64)
    chunk = max(1, 2_000_000 // max(1, len(candidate_ids)))
    for start in range(0, n_samples, chunk):
        block = samples[start : start + chunk]
        d2 = (
            np.einsum("ij,ij->i", block, block)[:, None]
            - 2.0 * block @ candidate_points.T
            + np.einsum("ij,ij->i", candidate_points, candidate_points)[None, :]
        )
        if k == 1:
            nearest = np.argmin(d2, axis=1)
            np.add.at(wins, nearest, 1)
        else:
            nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
            np.add.at(wins, nearest.ravel(), 1)

    results = []
    for obj_id, count in zip(candidate_ids, wins):
        p_hat = count / n_samples
        if p_hat >= theta and obj_id in reportable:
            stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / n_samples))
            results.append(NearestNeighborCandidate(obj_id, float(p_hat), stderr))
    results.sort(key=lambda c: (-c.probability, c.obj_id))
    return results

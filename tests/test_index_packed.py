"""Differential tests for the static packed index (the default Phase-1 index).

Two levels:

- index level: ``PackedIndex``, ``RStarTree`` and ``LinearScanIndex``
  return the same id sets and the same point per id on generated point
  sets and rectangles (duplicates, boundary points, degenerate
  rectangles, tiny and multi-level sets, non-contiguous ids);
- engine level: a database on the default index and one on an explicit
  ``index=RStarTree(d)`` give bit-identical answers and tier decisions
  through execute, ``run_batch``, serve, shard and monitor.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SpatialDatabase
from repro.bench.experiments import pseudo_feedback_gaussian
from repro.core.query import ProbabilisticRangeQuery
from repro.core.storage import write_soa
from repro.datasets import color_moments_like, long_beach_like
from repro.errors import IndexError_
from repro.gaussian.distribution import Gaussian
from repro.geometry.mbr import Rect
from repro.index import LinearScanIndex, PackedIndex, RStarTree
from repro.index.packed import NODE_CAPACITY
from repro.integrate.cascade import CascadeIntegrator

EQ34 = np.array([[7.0, 2.0 * math.sqrt(3.0)], [2.0 * math.sqrt(3.0), 3.0]])


def build(cls, ids, points):
    index = cls(points.shape[1])
    index.bulk_load(list(ids), points)
    return index


def assert_same_hits(packed, oracles, rect):
    ids, points = packed.range_search_points(rect)
    assert ids.dtype == np.int64
    assert points.shape == (ids.size, packed.dim)
    assert len(set(ids.tolist())) == ids.size
    for oracle in oracles:
        assert sorted(ids.tolist()) == sorted(oracle.range_search_rect(rect))
        for obj_id, point in zip(ids.tolist(), points):
            np.testing.assert_array_equal(point, oracle.get(obj_id))
    assert sorted(packed.range_search_rect(rect)) == sorted(ids.tolist())


# ----------------------------------------------------------------------
# Index level
# ----------------------------------------------------------------------


@st.composite
def point_sets(draw):
    dim = draw(st.sampled_from([1, 2, 3, 9]))
    n = draw(st.integers(1, 3 * NODE_CAPACITY))
    # A coarse integer grid: duplicates and exact boundary hits are common.
    coords = draw(
        st.lists(st.integers(0, 6), min_size=n * dim, max_size=n * dim)
    )
    points = np.asarray(coords, dtype=float).reshape(n, dim) * 1.5
    gaps = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    ids = np.cumsum(gaps) - 5  # unique, non-contiguous, some negative
    order = draw(st.permutations(range(n)))
    rects = []
    for _ in range(draw(st.integers(1, 6))):
        a = draw(st.lists(st.integers(-1, 7), min_size=dim, max_size=dim))
        b = draw(st.lists(st.integers(-1, 7), min_size=dim, max_size=dim))
        if draw(st.booleans()):
            b = list(a)  # fully degenerate: a point query
        lo = np.minimum(a, b) * 1.5
        hi = np.maximum(a, b) * 1.5
        rects.append(Rect(lo, hi))
    return ids[list(order)], points, rects


@settings(max_examples=60, deadline=None)
@given(point_sets())
def test_packed_matches_rtree_and_linear(case):
    ids, points, rects = case
    packed = build(PackedIndex, ids, points)
    oracles = [build(RStarTree, ids, points), build(LinearScanIndex, ids, points)]
    assert len(packed) == len(ids)
    assert packed.ids() == sorted(ids.tolist())
    for rect in rects:
        assert_same_hits(packed, oracles, rect)
    # The enclosing box returns everything, the empty side nothing.
    everything = Rect(points.min(axis=0), points.max(axis=0))
    assert packed.range_search_points(everything)[0].size == len(ids)
    beyond = Rect(points.max(axis=0) + 1.0, points.max(axis=0) + 2.0)
    assert packed.range_search_points(beyond)[0].size == 0


@pytest.mark.parametrize("dim,n", [(1, 20_000), (2, 130_000), (3, 20_000), (9, 4_000)])
def test_multi_level_matches_linear(dim, n):
    rng = np.random.default_rng(dim)
    points = rng.random((n, dim)) * 100.0
    ids = rng.permutation(3 * n)[:n]
    packed = build(PackedIndex, ids, points)
    if n > NODE_CAPACITY**3:
        assert len(packed._levels) >= 3  # root level, inner level, leaves
    oracle = build(LinearScanIndex, ids, points)
    for _ in range(20):
        lo = rng.random(dim) * 90.0
        rect = Rect(lo, lo + rng.random(dim) * (10.0 if dim < 9 else 60.0))
        assert_same_hits(packed, [oracle], rect)
        center = rng.random(dim) * 100.0
        assert [i for i, _ in packed.knn(center, 7)] == [
            i for i, _ in oracle.knn(center, 7)
        ]
        assert sorted(packed.range_search_sphere(center, 8.0)) == sorted(
            oracle.range_search_sphere(center, 8.0)
        )


def test_knn_distances_and_small_sets():
    points = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]])
    packed = build(PackedIndex, [10, 20, 30], points)
    assert packed.knn([0.0, 0.0], 2) == [(10, 0.0), (30, 1.0)]
    assert [i for i, _ in packed.knn([0.0, 0.0], 9)] == [10, 30, 20]
    with pytest.raises(IndexError_):
        packed.knn([0.0, 0.0], 0)


def test_get_and_unknown_ids():
    points = np.array([[1.0, 2.0], [3.0, 4.0]])
    packed = build(PackedIndex, [7, -3], points)
    np.testing.assert_array_equal(packed.get(-3), [3.0, 4.0])
    for missing in (0, 8, -4):
        with pytest.raises(IndexError_, match="unknown object id"):
            packed.get(missing)


def test_bulk_load_validation():
    with pytest.raises(IndexError_, match="duplicate"):
        build(PackedIndex, [1, 1], np.zeros((2, 2)))
    with pytest.raises(IndexError_, match="finite"):
        build(PackedIndex, [1, 2], np.array([[0.0, np.nan], [1.0, 1.0]]))
    with pytest.raises(IndexError_, match="ids"):
        build(PackedIndex, [1], np.zeros((2, 2)))
    packed = build(PackedIndex, [1], np.zeros((1, 2)))
    with pytest.raises(IndexError_, match="empty"):
        packed.bulk_load([2], np.ones((1, 2)))
    with pytest.raises(IndexError_):
        packed.range_search_points(Rect([0.0], [1.0]))


def test_mutation_raises_typed_error():
    db = SpatialDatabase(np.random.default_rng(0).random((50, 2)))
    assert isinstance(db.index, PackedIndex)
    route = r"SpatialDatabase\(points, index=RStarTree\(d\)\)"
    with pytest.raises(IndexError_, match=route):
        db.index.insert(9999, np.array([0.5, 0.5]))
    with pytest.raises(IndexError_, match=route):
        db.index.delete(0)
    assert len(db.index) == 50


def test_stats_count_real_work():
    rng = np.random.default_rng(4)
    packed = build(PackedIndex, range(20_000), rng.random((20_000, 2)) * 100.0)
    stats = packed.stats
    ids, _ = packed.range_search_points(Rect([40.0, 40.0], [45.0, 45.0]))
    assert stats.queries == 1
    top = packed._levels[0][0].shape[0]
    assert stats.node_accesses > top  # the root level plus what it let through
    assert 0 < stats.leaf_accesses < stats.node_accesses
    assert ids.size <= stats.entries_examined <= stats.leaf_accesses * NODE_CAPACITY
    before = stats.node_accesses
    packed.range_search_points(Rect([-5.0, -5.0], [-1.0, -1.0]))
    assert stats.queries == 2
    assert stats.node_accesses == before + top  # pruned at the root level


def test_non_contiguous_soa_ids(tmp_path):
    rng = np.random.default_rng(8)
    points = rng.random((900, 2)) * 100.0
    ids = np.sort(rng.choice(100_000, size=900, replace=False)).astype(np.int64)
    path = tmp_path / "db.soa"
    write_soa(path, ids, points)
    packed_db = SpatialDatabase.load(path)
    tree_db = SpatialDatabase.load(path, index=RStarTree(2))
    assert isinstance(packed_db.index, PackedIndex)
    for _ in range(15):
        lo = rng.random(2) * 80.0
        assert_same_hits(packed_db.index, [tree_db.index], Rect(lo, lo + 20.0))


# ----------------------------------------------------------------------
# Engine level: default index vs an explicit R*-tree, every surface
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def road_points():
    return long_beach_like(6_000, seed=3, n_towns=16).midpoints


def paper_queries(points, n, seed=0):
    """Table I-style PRQs: data-point centres, Sigma = gamma * Eq. 34."""
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(points.shape[0], size=n, replace=False)]
    gammas = rng.choice([1.0, 10.0, 100.0], size=n)
    deltas = np.exp(rng.uniform(math.log(10.0), math.log(50.0), size=n))
    thetas = np.exp(rng.uniform(math.log(0.005), math.log(0.3), size=n))
    return [
        ProbabilisticRangeQuery(Gaussian(c, g * EQ34), float(d), float(t))
        for c, g, d, t in zip(centers, gammas, deltas, thetas)
    ]


def signature(result):
    stats = result.stats
    return (
        tuple(result.ids),
        stats.retrieved,
        stats.integrations,
        dict(stats.tier_decisions),
    )


def both(points):
    return SpatialDatabase(points), SpatialDatabase(
        points, index=RStarTree(points.shape[1])
    )


class TestEngineParity:
    @pytest.mark.parametrize("strategies", ["all", "auto"])
    def test_execute_and_run_batch(self, road_points, strategies):
        packed_db, tree_db = both(road_points)
        assert isinstance(packed_db.index, PackedIndex)
        queries = paper_queries(road_points, 40)
        runs = []
        for db in (packed_db, tree_db):
            engine = db.engine(strategies=strategies, integrator=CascadeIntegrator())
            single = [signature(engine.execute(q)) for q in queries]
            batch = engine.run_batch(queries, workers=2).results
            assert [signature(r) for r in batch] == single
            runs.append(single)
        assert runs[0] == runs[1]
        assert any(ids for ids, *_ in runs[0])

    def test_table3_shape(self):
        points = color_moments_like(4_000, seed=2)
        packed_db, tree_db = both(points)
        rng = np.random.default_rng(5)
        queries = [
            ProbabilisticRangeQuery(
                pseudo_feedback_gaussian(points, tree_db, int(pick)), 0.7, 0.4
            )
            for pick in rng.choice(points.shape[0], size=6, replace=False)
        ]
        results = [
            [
                signature(r)
                for r in db.engine(integrator=CascadeIntegrator())
                .run_batch(queries)
                .results
            ]
            for db in (packed_db, tree_db)
        ]
        assert results[0] == results[1]
        assert any(retrieved for _, retrieved, *_ in results[0])

    def test_serve(self, road_points):
        from repro.serve import PRQRequest

        queries = paper_queries(road_points, 24, seed=1)
        answers = []
        for db in both(road_points):
            with db.serve(integrator=CascadeIntegrator()) as service:
                futures = [
                    service.submit(PRQRequest.from_query(q)) for q in queries
                ]
                responses = [f.result(timeout=60) for f in futures]
            assert all(r.status == "ok" for r in responses)
            answers.append([tuple(r.ids) for r in responses])
        assert answers[0] == answers[1]

    @pytest.mark.timeout(300)
    def test_shard(self, road_points):
        queries = paper_queries(road_points, 16, seed=2)
        packed_db, tree_db = both(road_points)
        expected = [
            tuple(r.ids)
            for r in tree_db.engine(integrator=CascadeIntegrator()).run(queries)
        ]
        with packed_db.shard(2) as sharded:
            scattered = sharded.engine(integrator=CascadeIntegrator()).run(queries)
        assert [tuple(r.ids) for r in scattered] == expected

    def test_monitor(self, road_points):
        from repro.serve.monitor import SubscriptionManager

        rng = np.random.default_rng(6)
        start = road_points[rng.integers(road_points.shape[0])]
        steps = rng.normal(0.0, 6.0, size=(25, 2))
        trails = []
        for db in both(road_points):
            manager = SubscriptionManager(
                db, db.engine(integrator=CascadeIntegrator())
            )
            position = start.copy()
            first = manager.subscribe(
                Gaussian(position, 10.0 * EQ34), 30.0, 0.1, subscription_id="s"
            )
            trail = [(first.status, first.ids)]
            for step in steps:
                position = position + step
                update = manager.update("s", position)
                trail.append((update.status, update.outcome, update.ids))
            trails.append(trail)
        assert trails[0] == trails[1]

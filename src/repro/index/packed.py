"""A static STR-packed array index: the default Phase-1 index.

The points are Sort-Tile-Recursive tiled once
(:func:`repro.index.bulk.tile_points`) and stored reordered, so every
leaf is a contiguous row slice.  Each level of the tree is a pair of
``(n_nodes, d)`` lo/hi MBR arrays whose nodes own a contiguous run of
the level below.  A rectangle search walks the levels top down with one
vectorised intersection mask per level, masks the rows of the surviving
leaves, and returns the hits as an ``int64`` id array plus their
``(k, d)`` points in one gather — no Python loop per node, entry or id.

The index is static: :meth:`PackedIndex.bulk_load` builds it and
:meth:`~PackedIndex.insert`/:meth:`~PackedIndex.delete` raise.  Dynamic
workloads pass an :class:`~repro.index.rtree.RStarTree` to the database
instead; the R*-tree also stays the index for the paper experiments
that count node accesses.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import IndexError_
from repro.geometry.mbr import Rect
from repro.index.base import SpatialIndex
from repro.index.bulk import tile_points

__all__ = ["PackedIndex", "NODE_CAPACITY"]

_ArrayLike = Sequence[float] | np.ndarray

#: Points per leaf and children per inner node (the R*-tree's page size).
NODE_CAPACITY = 50


def _expand(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Concatenate the integer ranges ``[first[i], last[i])``."""
    counts = last - first
    offsets = np.repeat(first - np.cumsum(counts) + counts, counts)
    return offsets + np.arange(offsets.size)


def _group_starts(groups: list[np.ndarray]) -> np.ndarray:
    sizes = np.fromiter((g.size for g in groups), dtype=np.int64, count=len(groups))
    return np.concatenate(([0], np.cumsum(sizes)))


class PackedIndex(SpatialIndex):
    """A bulk-loaded, read-only index over contiguous, STR-ordered rows.

    ``stats`` counts ``node_accesses`` as the nodes whose MBR was tested,
    ``leaf_accesses`` as the leaves whose rows were scanned and
    ``entries_examined`` as the point rows tested.
    """

    def __init__(self, dim: int):
        super().__init__(dim)
        self._ids = np.empty(0, dtype=np.int64)
        self._points = np.empty((0, dim))
        self._by_id = np.empty(0, dtype=np.int64)  # row order sorting the ids
        #: Top level first; each level is ``(lo, hi, first, last)`` where
        #: node ``i`` owns children (or, for leaves, rows) first[i]:last[i].
        self._levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def _static(self, action: str, obj_id: int) -> IndexError_:
        return IndexError_(
            f"PackedIndex is static and cannot {action} id {obj_id!r}; build "
            "the database with SpatialDatabase(points, index=RStarTree(d)) "
            "for a dynamic index"
        )

    def insert(self, obj_id: int, point: _ArrayLike) -> None:
        raise self._static("insert", obj_id)

    def delete(self, obj_id: int) -> None:
        raise self._static("delete", obj_id)

    def bulk_load(self, ids: Iterable[int], points: np.ndarray) -> None:
        """Build the index over ``points`` (once; the index is static)."""
        if len(self) != 0:
            raise IndexError_("bulk_load requires an empty index")
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self._dim:
            raise IndexError_(
                f"points must have shape (n, {self._dim}), got {pts.shape}"
            )
        id_arr = np.asarray(ids if isinstance(ids, np.ndarray) else list(ids))
        if id_arr.shape != (pts.shape[0],):
            raise IndexError_(f"got {id_arr.size} ids for {pts.shape[0]} points")
        id_arr = id_arr.astype(np.int64, copy=False)
        if not np.all(np.isfinite(pts)):
            raise IndexError_("points must be finite")
        by_id = np.argsort(id_arr, kind="stable")
        sorted_ids = id_arr[by_id]
        if np.any(sorted_ids[1:] == sorted_ids[:-1]):
            raise IndexError_("duplicate ids in bulk load")
        if not pts.shape[0]:
            return

        # Bottom-up: STR-group the nodes of each level (first the points)
        # into parents and take the parents' MBRs, until a level fits in
        # one node.
        lo = hi = pts
        groups = tile_points(np.arange(pts.shape[0]), pts, NODE_CAPACITY, axis=0)
        built = []
        while True:
            members = np.concatenate(groups)
            starts = _group_starts(groups)[:-1]
            lo = np.minimum.reduceat(lo[members], starts, axis=0)
            hi = np.maximum.reduceat(hi[members], starts, axis=0)
            built.append((lo, hi, groups))
            if lo.shape[0] <= NODE_CAPACITY:
                break
            groups = tile_points(
                np.arange(lo.shape[0]), (lo + hi) / 2.0, NODE_CAPACITY, axis=0
            )

        # Top-down: lay every parent's children out contiguously.
        order = np.arange(lo.shape[0])
        levels = []
        for lo, hi, children in reversed(built):
            ranges = _group_starts([children[i] for i in order])
            levels.append((lo[order], hi[order], ranges[:-1], ranges[1:]))
            order = np.concatenate([children[i] for i in order])

        self._points = np.ascontiguousarray(pts[order])
        self._points.setflags(write=False)
        self._ids = id_arr[order]
        row_of = np.empty_like(order)
        row_of[order] = np.arange(order.size)
        self._by_id = row_of[by_id]
        self._levels = levels

    def get(self, obj_id: int) -> np.ndarray:
        slot = int(np.searchsorted(self._ids, obj_id, sorter=self._by_id))
        if slot < self._ids.size:
            row = self._by_id[slot]
            if self._ids[row] == obj_id:
                return self._points[row]
        raise IndexError_(f"unknown object id {obj_id!r}")

    def ids(self) -> list[int]:
        return self._ids[self._by_id].tolist()

    def __len__(self) -> int:
        return self._ids.size

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def range_search_points(self, rect: Rect) -> tuple[np.ndarray, np.ndarray]:
        self._validate_rect(rect)
        stats = self.stats
        stats.queries += 1
        rlo, rhi = rect.lows, rect.highs
        rows = None
        for lo, hi, first, last in self._levels:
            if rows is not None:
                lo, hi, first, last = lo[rows], hi[rows], first[rows], last[rows]
            stats.node_accesses += lo.shape[0]
            hit = np.all(lo <= rhi, axis=1) & np.all(hi >= rlo, axis=1)
            rows = _expand(first[hit], last[hit])
        if rows is None or not rows.size:
            return np.empty(0, dtype=np.int64), np.empty((0, self._dim))
        stats.leaf_accesses += int(np.count_nonzero(hit))
        stats.entries_examined += rows.size
        points = self._points[rows]
        inside = np.all((points >= rlo) & (points <= rhi), axis=1)
        return self._ids[rows[inside]], points[inside]

    def range_search_rect(self, rect: Rect) -> list[int]:
        return self.range_search_points(rect)[0].tolist()

    def knn(self, point: _ArrayLike, k: int) -> list[tuple[int, float]]:
        p = self._validate_point(point)
        if k < 1:
            raise IndexError_(f"k must be >= 1, got {k}")
        self.stats.queries += 1
        if not len(self):
            return []
        k = min(k, len(self))
        lo, hi, first, last = self._levels[-1]
        self.stats.node_accesses += lo.shape[0]
        # Leaves nearest first; the smallest prefix holding k points bounds
        # the k-th distance, and only leaves within that bound can hold a
        # closer point.
        leaf_distance = _distances(np.maximum(lo - p, 0.0) + np.maximum(p - hi, 0.0))
        by_distance = np.argsort(leaf_distance, kind="stable")
        prefix = int(np.searchsorted(np.cumsum((last - first)[by_distance]), k)) + 1
        rows = _expand(first[by_distance[:prefix]], last[by_distance[:prefix]])
        bound = np.partition(_distances(self._points[rows] - p), k - 1)[k - 1]
        near = by_distance[leaf_distance[by_distance] <= bound]
        rows = _expand(first[near], last[near])
        distances = _distances(self._points[rows] - p)
        self.stats.leaf_accesses += near.size
        self.stats.entries_examined += rows.size
        ids = self._ids[rows]
        best = np.lexsort((ids, distances))[:k]
        return [(int(ids[i]), float(distances[i])) for i in best]


def _distances(gaps: np.ndarray) -> np.ndarray:
    """Euclidean row norms (one formula for leaves and points, so a leaf
    bound never exceeds the distance of a point inside it)."""
    return np.sqrt(np.einsum("ij,ij->i", gaps, gaps))

"""Spatial index substrates (Phase 1 of query processing).

The paper retrieves candidates with an R*-tree (Katayama's HnRStar
implementation, 1 KB pages).  This package provides a static packed
array index for the query path, a from-scratch pure-Python R*-tree and
two baselines behind one protocol:

- :class:`~repro.index.packed.PackedIndex` — the default: STR-tiled
  once into contiguous leaf rows with per-level lo/hi MBR arrays,
  searched level by level with vectorised masks; static;
- :class:`~repro.index.rtree.RStarTree` — insertion with R* choose-subtree,
  margin-driven split and forced reinsertion; STR bulk loading; rectangle
  and sphere range search; best-first k-NN.  Kept for dynamic use and
  for the paper experiments that count node accesses;
- :class:`~repro.index.grid.GridIndex` — a uniform grid (spatial hashing)
  baseline;
- :class:`~repro.index.linear.LinearScanIndex` — the no-index baseline.

``range_search_points`` returns candidates as an ``int64`` id array plus
their ``(k, d)`` points; ``range_search_rect`` and the other searches
return object ids, whose points ``get`` fetches one at a time.
"""

from repro.index.base import IndexStats, SpatialIndex
from repro.index.packed import PackedIndex
from repro.index.rtree import RStarTree
from repro.index.grid import GridIndex
from repro.index.linear import LinearScanIndex

__all__ = [
    "SpatialIndex",
    "IndexStats",
    "PackedIndex",
    "RStarTree",
    "GridIndex",
    "LinearScanIndex",
]

"""Exact kNN-graph construction by blocked brute force.

Used as the ground-truth graph for small datasets and as the base graph
NSG, DPG and CAGRA refine.  The neighbors are
:func:`repro.data.ground_truth` of the dataset against itself, byte for
byte, computed as a self-join that scores each point pair once in tiles,
so memory stays bounded for larger datasets.  :func:`bootstrap_table` is
the one answer to "where does a refinement builder's kNN table come
from".
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.data.ground_truth import TILE_BYTES, band_top_k, ground_truth
from repro.distances import get_metric
from repro.distances.metrics import PANEL_BYTES
from repro.graphs.storage import FixedDegreeGraph
from repro.simt.build_cost import maybe_recorder

#: Rows per GEMM when a tile is scored.  The BLAS packs the rows of one
#: product into a work buffer that stays resident: whole 1000-row tiles
#: left 0.8 MB more of it touched than the banded top-k's 131-row
#: products, and 256-row bands run the GEMM within a few per cent of them.
_GEMM_ROWS = 256

#: The key of an empty pool slot, (+inf, id 2^32 - 1): it reads as an
#: infinite distance, so a pool with one keeps taking every candidate.
_EMPTY = np.int64(0x7F80_0000_FFFF_FFFF)


def knn_neighbors(
    data: np.ndarray, k: int, metric: str = "l2", block: Optional[int] = None
) -> np.ndarray:
    """Return an ``(n, k)`` int64 array of each point's k nearest other points.

    Equal, byte for byte, to ``ground_truth(data, data, k, metric,
    exclude_self=True)``, at half its GEMM.  The points are cut into
    near-equal tile sides of at most ``block`` points (by default the
    widest side whose square tile of float32 distances and one
    ``_GEMM_ROWS``-row band of it fit ``TILE_BYTES``) and never fewer than
    two: a one-row product goes to GEMV, whose bits differ from the GEMM's.
    Only the tiles ``(I, J)`` with ``J >= I`` are scored, each once: the
    GEMM's distances are symmetric bit for bit, so a tile's rows are the
    candidates of the points in ``I`` and its columns those of the points
    in ``J``.  Both feed running ``(n, k + 1)`` pools (:func:`_fold`); a
    point's pool is seeded from its diagonal tile.  A point whose final
    pool holds an exact distance tie (or fewer than ``k`` finite
    distances) is scored again by
    :func:`~repro.data.ground_truth.band_top_k`, the selection
    ``ground_truth`` makes, which alone decides the order of ties.
    Distances other than float32 take that path for every point.
    """
    n = len(data)
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n - 1:
        raise ValueError(f"k={k} exceeds the {n - 1} points a query can be matched to")
    if data.dtype != np.float32 or n >= 1 << 32:
        return ground_truth(data, data, k, metric, exclude_self=True)
    m = get_metric(metric)
    norms = m.pairwise_norms(data)
    # the widest side whose tile and one GEMM band fit TILE_BYTES of float32
    side = block or (math.isqrt(_GEMM_ROWS**2 + TILE_BYTES) - _GEMM_ROWS) // 2
    sides = _spans(n, side)
    width = k + 1
    pool = np.full((n, width), _EMPTY, dtype=np.int64)
    bound = np.empty(n, dtype=np.float32)
    most = max(hi - lo for lo, hi in sides)
    cells = np.empty(most * most, dtype=np.float32)  # every tile, in turn
    for b, (lo, hi) in enumerate(sides):
        own_norms = None if norms is None else norms[lo:hi]
        tile = _tile(m, data[lo:hi], data[lo:hi], own_norms, cells)
        np.fill_diagonal(tile, np.inf)
        # seed: the bound is the row's (k+1)-th distance in its own tile
        seed = bound[lo:hi]
        seed[:] = np.inf
        if tile.shape[1] >= width:
            step = max(1, PANEL_BYTES // (4 * tile.shape[1]))
            for r in range(0, len(tile), step):
                seed[r : r + step] = np.partition(tile[r : r + step], k, axis=1)[:, k]
        _fold(tile, lo, lo, pool, bound, both=False)
        for a_lo, a_hi in sides[:b]:
            tile = _tile(m, data[a_lo:a_hi], data[lo:hi], own_norms, cells)
            _fold(tile, a_lo, lo, pool, bound)
    del bound, cells, tile
    out, tied = _ranked(pool, k)
    if len(tied) == 1:  # a lone row would be scored by GEMV: give it a partner
        tied = np.append(tied, (tied[0] + 1) % n)
    for lo, hi in _spans(len(tied), max(2, TILE_BYTES // (4 * n))):
        out[tied[lo:hi]] = band_top_k(m, data[tied[lo:hi]], data, norms, k, tied[lo:hi])
    return out


def _spans(total: int, size: int):
    """Near-equal ``(lo, hi)`` ranges covering ``[0, total)``, about
    ``size`` long at most and never one long: numpy sends a one-row
    product to GEMV (no range at all when ``total`` is 0)."""
    parts = min(-(-total // size), total // 2)
    return [(p * total // parts, (p + 1) * total // parts) for p in range(parts)]


def _tile(m, rows: np.ndarray, cols: np.ndarray, norms, cells: np.ndarray) -> np.ndarray:
    """``m.pairwise(rows, cols, norms)`` in the front of ``cells``, scored
    ``_GEMM_ROWS`` rows at a time (near-equal bands of two rows or more)."""
    tile = cells[: len(rows) * len(cols)].reshape(len(rows), len(cols))
    for lo, hi in _spans(len(rows), _GEMM_ROWS):
        tile[lo:hi] = m.pairwise(rows[lo:hi], cols, norms)
    return tile


def _ranked(pool: np.ndarray, k: int):
    """The first ``k`` ids of each sorted pool, as ``(n, k)`` int64 written
    over the pool's own memory, and the rows whose pool holds an exact
    distance tie or fewer than ``k`` finite distances."""
    n = len(pool)
    flat = pool.reshape(-1)
    tied = []
    step = max(1, PANEL_BYTES // (32 * pool.shape[1]))
    for lo in range(0, n, step):
        keys = pool[lo : lo + step]
        dist = _distances(keys >> 32)
        clash = (dist[:, 1:] == dist[:, :-1]).any(axis=1) | ~np.isfinite(dist[:, k - 1])
        tied.append(lo + np.flatnonzero(clash))
        # row r's ids go to [r * k, (r + 1) * k), where no unread row lies
        flat[lo * k : (lo + len(keys)) * k] = (keys[:, :k] & 0xFFFFFFFF).reshape(-1)
    return flat[: n * k].reshape(n, k), np.concatenate(tied)


def _keys(dist: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """int64 keys that order as ``(dist, id)`` pairs do: the float32
    distance's bits, made to order as a signed integer, above the id."""
    bits = dist.view(np.int32)
    bits = bits ^ ((bits >> 31) & 0x7FFFFFFF)
    return (bits.astype(np.int64) << 32) | ids


def _distances(high: np.ndarray) -> np.ndarray:
    """The float32 distances of keys shifted down by 32 bits."""
    bits = high.astype(np.int32)
    return (bits ^ ((bits >> 31) & 0x7FFFFFFF)).view(np.float32)


def _fold(tile, row_lo, col_lo, pool, bound, both=True) -> None:
    """Merge one tile's candidates into the sorted ``(k + 1)``-key pools.

    ``tile[i, j]`` is the distance between points ``row_lo + i`` and
    ``col_lo + j``.  Point ``row_lo + i`` takes the entries of row ``i`` at
    or below its ``bound`` (its pool's largest distance) and, with
    ``both``, point ``col_lo + j`` those of column ``j``.  A bool mask of
    ``PANEL_BYTES`` at a time finds them; :func:`_merge` folds them in,
    ``_PIECE`` hits or fewer at a time.
    """
    s_r, s_c = tile.shape
    flat_tile = tile.reshape(-1)
    step = max(1, PANEL_BYTES // s_c)
    for lo in range(0, s_r, step):
        hi = min(lo + step, s_r)
        hit = tile[lo:hi] <= bound[row_lo + lo : row_lo + hi, None]
        for a, z in _pieces(hit):
            flat = np.flatnonzero(hit[a:z])
            r, c = np.divmod(flat, s_c)
            at = slice(row_lo + lo + a, row_lo + lo + z)
            _merge(pool[at], bound[at], r, col_lo + c, flat_tile[(lo + a) * s_c + flat])
        del hit  # or it is still live while the next one is made
    if not both:
        return
    step = max(1, PANEL_BYTES // s_r)
    for lo in range(0, s_c, step):
        hi = min(lo + step, s_c)
        hit = (tile[:, lo:hi] <= bound[col_lo + lo : col_lo + hi]).T
        for a, z in _pieces(hit):
            i, j = np.divmod(np.flatnonzero(hit[a:z].T), z - a)
            # group the hits by column: (column, row) sorts as one integer
            j, i = np.divmod(np.sort(j * s_r + i), s_r)
            at = slice(col_lo + lo + a, col_lo + lo + z)
            _merge(pool[at], bound[at], j, row_lo + i, flat_tile[i * s_c + lo + a + j])
        del hit


#: Most hits one :func:`_merge` takes: its index and key arrays stay
#: within a few ``PANEL_BYTES`` whatever the data.
_PIECE = PANEL_BYTES // 64


def _pieces(hit: np.ndarray):
    """``(a, z)`` row ranges of ``hit`` holding about ``_PIECE`` hits each."""
    pieces = max(1, -(-np.count_nonzero(hit) // _PIECE))
    for piece in range(pieces):
        yield piece * len(hit) // pieces, (piece + 1) * len(hit) // pieces


def _merge(pool, bound, r, ids, dist) -> None:
    """Fold hits into ``pool``'s rows: hit ``h`` is point ``ids[h]`` at
    ``dist[h]`` for row ``r[h]`` (ascending).  Each row's pool and hits
    are padded into one block, sorted, and cut back to the pool's width."""
    if not len(r):
        return
    width = pool.shape[1]
    counts = np.bincount(r, minlength=len(pool))
    wide = width + int(counts.max())
    merged = np.full((len(pool), wide), _EMPTY, dtype=np.int64)
    merged[:, :width] = pool
    # a row's hits fill the slots after its pool, in order
    start = np.arange(width, len(pool) * wide, wide) - (np.cumsum(counts) - counts)
    merged.reshape(-1)[start[r] + np.arange(len(r))] = _keys(dist, ids)
    merged.sort(axis=1)
    pool[:] = merged[:, :width]
    bound[:] = _distances(merged[:, width - 1] >> 32)


def bootstrap_table(
    data: np.ndarray,
    k: int,
    metric: str = "l2",
    knn_table: Optional[np.ndarray] = None,
    cost=None,
) -> np.ndarray:
    """The ``(n, k)`` int64 kNN table NSG, DPG and CAGRA refine.

    Rows are sorted ascending by distance (position = rank).  The
    caller's ``knn_table`` wins when given; otherwise it is the exact
    self-join (:func:`knn_neighbors`) at every size, whose kernels
    ``cost`` (a :class:`~repro.simt.build_cost.BuildCostRecorder`)
    receives.

    Whatever the source, the table returned has shape ``(n, k)``, every
    id in ``[0, n)`` and no id twice in a row (a row may hold its own
    index) — checked here once, so the refinement kernels index with it
    unchecked; a table that breaks this raises ``ValueError`` naming its
    source.
    """
    n = len(data)
    if knn_table is not None:
        source = "knn_table"
        table = np.array(knn_table, dtype=np.int64)
        if table.shape != (n, k):
            raise ValueError(
                f"knn_table must have shape ({n}, {k}), got {table.shape}"
            )
    else:
        source = "exact top-k table"
        table = knn_neighbors(data, k, metric)
        rec = maybe_recorder(cost)
        dim = data.shape[1]
        flops = get_metric(metric).flops_per_distance(dim)
        rec.record_distances(n * n, flops, dim, "bootstrap-exact")
        rec.record_sort(n, min(n, 4 * k), "bootstrap-topk")
    by_id = np.sort(table, axis=1)
    if by_id[:, 0].min() < 0 or by_id[:, -1].max() >= n:
        raise ValueError(f"{source}: ids must lie in [0, {n})")
    if (by_id[:, 1:] == by_id[:, :-1]).any():
        raise ValueError(f"{source}: a row holds the same id twice")
    return table


def build_knn_graph(
    data: np.ndarray, k: int, metric: str = "l2", entry_point: int = None
) -> FixedDegreeGraph:
    """Exact kNN graph as a :class:`FixedDegreeGraph`.

    The entry point defaults to the medoid (point closest to the mean),
    which is also how NSG picks its navigating node.  Raises
    ``ValueError`` naming the first row that holds a NaN or an infinity
    once cast to float32.
    """
    from repro.core.song import require_finite

    require_finite(np.asarray(data, dtype=np.float32), "build_knn_graph data")
    nbrs = knn_neighbors(data, k, metric)
    if entry_point is None:
        entry_point = medoid(data, metric)
    return FixedDegreeGraph.from_neighbor_array(nbrs, entry_point)


def medoid(data: np.ndarray, metric: str = "l2") -> int:
    """Index of the point nearest the dataset centroid.

    Scored through :meth:`~repro.distances.Metric.gather_many`'s tiles:
    one ``PANEL_BYTES`` tile and the ``(n,)`` distances at a time, never
    an ``(n, d)`` difference.
    """
    n = len(data)
    center = data.mean(axis=0)[None, :]
    lanes = np.zeros(n, dtype=np.int64)
    dists = get_metric(metric).gather_many(center, lanes, data, np.arange(n))
    return int(np.argmin(dists))

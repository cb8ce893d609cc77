"""Diversified proximity graph (DPG — Li et al., referenced by the paper).

DPG diversifies a kNN graph by angular coverage — among a vertex's kNN
candidates it keeps the subset that maximizes pairwise angles (greedy
max-min-angle selection) — then makes the graph undirected.  The paper
lists DPG among the graph family SONG accelerates; building it here lets
the generality experiment (Fig. 12) extend beyond NSG.

The whole build is batch kernels — no per-vertex Python loop anywhere.
The kNN table comes from
:func:`~repro.graphs.bruteforce_knn.bootstrap_table` (exact up to 2^15
points).  Angular diversification runs the greedy rounds across a whole
block of vertices at once — one ``einsum('bkd,bd->bk')`` per round
updates every row's running max-cosine against its newest pick — and
undirection/backfill is a flat priority-stream merge (forward band,
reverse band in arrival order, kNN backfill band) resolved by two
lexsorts, the same pattern as the CAGRA reverse merge.
:func:`~repro.graphs._repair.attach_orphans` then restores reachability
from the entry point: diversification plus a degree cap can leave a
vertex with no in-path at all (2 of 1000 on the nytimes analogue and 15
of 2000 on the glove200 analogue at degree 8), and a vertex no search can
return is a silent recall loss.

Search recall is held to brute-force ground truth in
``tests/test_graph_quality.py``; the adjacency is pinned by digest in
``tests/test_build_paths.py``.
"""

from __future__ import annotations

# lint: hot-path

from typing import Optional

import numpy as np

from repro.distances import get_metric
from repro.graphs._prune import _rank_within_groups, dedup_pool_edges
from repro.graphs._repair import attach_orphans
from repro.graphs.bruteforce_knn import bootstrap_table, medoid
from repro.graphs.storage import PAD, FixedDegreeGraph
from repro.simt.build_cost import maybe_recorder
from repro.structures.soa import pack_rowid

__all__ = ["build_dpg"]

#: Vertices per angular-diversification block (bounds the ``(B, K, d)``
#: direction panel: 1024 rows of 32 candidates at d=128 is ~16 MB).
_DIVERSIFY_BLOCK = 1024


def _diversify(
    data: np.ndarray, table: np.ndarray, keep: int, rec
) -> np.ndarray:
    """Greedy max-min-angle selection for every vertex at once.

    Runs the greedy's rounds in lockstep over vertex blocks: the
    running "worst" (max cosine against any chosen direction) updates
    incrementally with one fused ``einsum`` per round instead of
    rebuilding the chosen-matrix product.  Returns ``(n, keep)`` selected
    ids in pick order (slot 0 is always the nearest neighbor).
    """
    n, cap = table.shape
    dim = data.shape[1]
    keep = min(keep, cap)
    out = np.empty((n, keep), dtype=np.int64)
    a = 0
    while a < n:
        b = min(n, a + _DIVERSIFY_BLOCK)
        block = b - a
        tbl = table[a:b]
        dirs = data[tbl] - data[a:b, None, :]
        norms = np.linalg.norm(dirs, axis=2, keepdims=True)
        norms[norms == 0] = 1.0
        dirs = dirs / norms
        rows = np.arange(block)
        sel = np.zeros((block, keep), dtype=np.int64)  # col 0: nearest kept
        chosen = np.zeros((block, cap), dtype=bool)
        chosen[:, 0] = True
        worst = np.einsum("bkd,bd->bk", dirs, dirs[:, 0, :])
        r = 1
        while r < keep:
            pick = np.argmin(np.where(chosen, np.inf, worst), axis=1)
            sel[:, r] = pick
            chosen[rows, pick] = True
            np.maximum(
                worst, np.einsum("bkd,bd->bk", dirs, dirs[rows, pick]), out=worst
            )
            r += 1
        out[a:b] = np.take_along_axis(tbl, sel, axis=1)
        a = b
    # one normalized direction (≈3·dim flops) + keep cosine rounds
    # (2·dim flops each) per candidate
    rec.record_distances(n * cap * max(1, keep), 2 * dim, dim, "diversify")
    return out


def _undirect(
    fwd: np.ndarray, table: np.ndarray, degree: int, rec
) -> np.ndarray:
    """Forward + reverse + backfill bands merged into ``(n, degree)`` rows.

    Every stream entry carries a priority: diversified forward edges
    first (their pick order), then reverse edges in arrival order
    (source vertex, then source slot), then each vertex's
    remaining kNN candidates in rank order.
    :func:`~repro.graphs._prune.dedup_pool_edges` (NSG's pool dedup)
    keeps each ``(vertex, candidate)`` at its strongest band and ranks
    each vertex's survivors, and a scatter writes the rows.
    """
    n, keep = fwd.shape
    cap = table.shape[1]

    # forward band: priority = pick order
    w_f = np.repeat(np.arange(n, dtype=np.int64), keep)
    c_f = fwd.ravel()
    p_f = np.tile(np.arange(keep, dtype=np.int64), n)

    # reverse band: forward edges enumerated row-major *are* the
    # arrival order, so ranking each target's in-edges by that flat index
    # reproduces it
    comp = pack_rowid(c_f, np.arange(n * keep, dtype=np.int64), n * keep)
    # lint: allow(nondet-sort) comp cannot tie: its flat-index low part is unique
    order = np.argsort(comp)
    w_r = c_f[order]
    c_r = w_f[order]
    p_r = keep + _rank_within_groups(w_r)

    # backfill band: kNN candidates in rank order, after every reverse edge
    w_b = np.repeat(np.arange(n, dtype=np.int64), cap)
    c_b = table.ravel().astype(np.int64)
    p_b = keep + np.int64(n * keep) + np.tile(np.arange(cap, dtype=np.int64), n)
    no_self = c_b != w_b
    w_b, c_b, p_b = w_b[no_self], c_b[no_self], p_b[no_self]

    w_all = np.concatenate([w_f, w_r, w_b])
    c_all = np.concatenate([c_f, c_r, c_b])
    p_all = np.concatenate([p_f, p_r, p_b])
    rec.record_flat_sort(len(w_all), "undirect")

    # dedup each (vertex, candidate) to its strongest band; a vertex's
    # priorities are distinct, so the candidate tie-break never decides
    w_k, c_k, _, rank = dedup_pool_edges(w_all, c_all, p_all, n)
    sel = rank < degree
    out = np.full((n, degree), PAD, dtype=np.int64)
    out[w_k[sel], rank[sel]] = c_k[sel]
    return out


def build_dpg(
    data: np.ndarray,
    degree: int = 16,
    knn: int = None,
    metric: str = "l2",
    knn_table: np.ndarray = None,
    cost: Optional[object] = None,
) -> FixedDegreeGraph:
    """Build a DPG: angular diversification of a kNN graph + undirection.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    degree:
        Out-degree bound of the final graph.  Half the slots are filled
        by diversified out-edges, the rest by reverse edges.
    knn:
        Candidate-pool size (default ``2 * degree``).
    knn_table:
        Optional precomputed ``(n, knn)`` neighbor table.
    cost:
        Optional :class:`~repro.simt.build_cost.BuildCostRecorder`;
        every bulk kernel of the build is recorded on it.

    Raises ``ValueError`` naming the first row that holds a NaN or an
    infinity once cast to float32.
    """
    from repro.core.song import require_finite

    data = np.asarray(data)
    data32 = np.ascontiguousarray(data, dtype=np.float32)
    require_finite(data32, "build_dpg data")
    if degree < 2:
        raise ValueError("degree must be at least 2")
    knn = knn or 2 * degree
    table = bootstrap_table(data, knn, metric, knn_table, cost=cost)
    rec = maybe_recorder(cost)
    fwd = _diversify(data32, table, max(1, degree // 2), rec)
    adjacency = _undirect(fwd, table, degree, rec)
    entry = medoid(data, metric)
    attach_orphans(adjacency, table, entry, data, get_metric(metric))
    rec.record_graph_write(adjacency.size)
    return FixedDegreeGraph.from_neighbor_array(
        adjacency, entry_point=entry, validate=False
    )

"""The pruning kernels the graph builders share.

:func:`occlusion_select` is the distance-based occlusion rule that
HNSW's neighbor selection and NSG's monotonic-RNG prune both apply;
:func:`dedup_pool_edges` ranks the candidate pools of NSG (by distance)
and DPG (by band priority).  Two ragged-index helpers ride along:
:func:`_rank_within_groups` (that ranking, and DPG's reverse band) and
:func:`_ragged_arange` (CAGRA's reverse merge).
"""

from __future__ import annotations

# lint: hot-path

from typing import Optional, Tuple

import numpy as np

from repro.distances import Metric
from repro.graphs.storage import PAD
from repro.simt.build_cost import maybe_recorder
from repro.structures.soa import pack_rowid, unpack_rowid

__all__ = ["occlusion_select", "dedup_pool_edges"]


def occlusion_select(
    metric: Metric,
    data: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
    m: int,
    pairs: Optional[np.ndarray] = None,
    backfill: bool = True,
    cost: Optional[object] = None,
) -> np.ndarray:
    """The occlusion rule for ``R`` rows at once.

    Row ``r`` of the ``(R, C)`` ``ids`` lists one point's candidates in
    ascending ``dists`` order, ``PAD`` after the last.  A candidate is
    kept when no already-kept neighbor is closer to it than the point
    is (the reject test is ``not (pair >= d)``, so a NaN pair rejects),
    until ``m`` are kept.  With ``backfill`` (HNSW; NSG has none) a row
    whose candidates run out first takes the nearest rejected ones.  The
    result is ``(R, m)``: the kept ids in candidate order, then the
    backfill, ``PAD`` after the last.

    Rows run in lockstep over candidate columns.  Step ``c`` compares
    every live row's ``c``-th candidate with the at most ``m`` neighbors
    that row has kept.  Without ``pairs`` it scores those pairs in one
    :meth:`~repro.distances.metrics.Metric.gather_many` call, so a row
    costs at most ``C·m`` pair distances, not the ``C²`` of a full
    pairwise panel, and ``cost`` records them as one ``occlude`` phase;
    with the ``(R, C, C)`` panel ``pairs[r, i, j]`` (the distance
    between candidates ``i`` and ``j`` of row ``r``) it reads them and
    scores nothing.  Either way a pair's value is the one a
    one-row-at-a-time rule would score: ``gather_many`` values do not
    depend on the call that computes them, and the vector-space
    distances are bitwise symmetric in their two rows.
    """
    rows, width = ids.shape
    valid = ids != PAD
    picked = np.zeros((rows, width), dtype=bool)
    count = np.zeros(rows, dtype=np.int64)
    scored = 0
    if pairs is not None:
        far = ~(pairs >= dists[:, :, None])  # far[r, c, j]: kept j rejects c
    # lint: allow(hot-loop) — iterates candidate columns (≤ ef), all rows at once
    for col in range(width):
        live = valid[:, col] & (count < m)
        if col and live.any():
            # a live row keeps its candidate unless a kept neighbor is closer
            if pairs is None:
                row, j = np.nonzero(picked[:, :col] & live[:, None])
                pair = metric.gather_many(data, ids[row, col], data, ids[row, j])
                live[row[~(pair >= dists[row, col])]] = False
                scored += len(row)
            else:
                live &= ~(picked[:, :col] & far[:, col, :col]).any(axis=1)
        picked[:, col] = live
        count += live
    dim = data.shape[1]
    maybe_recorder(cost).record_distances(
        scored, metric.flops_per_distance(dim), dim, "occlude"
    )
    kept = np.full((rows, m), PAD, dtype=np.int64)
    row, col = np.nonzero(picked)
    kept[row, np.cumsum(picked, axis=1)[row, col] - 1] = ids[row, col]
    if backfill:
        # the nearest rejected candidates, in candidate order
        spare = valid & ~picked
        rank = np.cumsum(spare, axis=1) - 1
        row, col = np.nonzero(spare & (rank < (m - count)[:, None]))
        kept[row, count[row] + rank[row, col]] = ids[row, col]
    return kept


def dedup_pool_edges(
    owner: np.ndarray, cand: np.ndarray, priority: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dedup flat pool edges and rank them per owner by priority.

    Each ``(owner, cand)`` pair keeps its smallest priority (a distance,
    or an integer band rank), survivors are sorted per owner by
    ``(priority, cand)``, and ``rank`` is each edge's 0-based position
    within its owner's run — ready for a ``pool[owner, rank]`` scatter.
    Returns ``(owner, cand, priority, rank)``.
    """
    vc = pack_rowid(owner, cand, n)
    order = np.lexsort((priority, vc))
    vc_s, prio_s = vc[order], priority[order]
    keep = np.ones(len(vc_s), dtype=bool)
    keep[1:] = vc_s[1:] != vc_s[:-1]
    vc_s, prio_s = vc_s[keep], prio_s[keep]
    owner_k, cand_k = unpack_rowid(vc_s, n)
    order = np.lexsort((cand_k, prio_s, owner_k))
    owner_k, cand_k, prio_s = owner_k[order], cand_k[order], prio_s[order]
    rank = _rank_within_groups(owner_k)
    return owner_k, cand_k, prio_s, rank


def _rank_within_groups(sorted_groups: np.ndarray) -> np.ndarray:
    """0-based position of each element inside its run of equal values."""
    idx = np.arange(len(sorted_groups), dtype=np.int64)
    is_start = np.ones(len(sorted_groups), dtype=bool)
    is_start[1:] = sorted_groups[1:] != sorted_groups[:-1]
    return idx - np.maximum.accumulate(np.where(is_start, idx, 0))


def _ragged_arange(reps: np.ndarray) -> np.ndarray:
    """``concatenate([arange(r) for r in reps])`` without the Python loop."""
    total = int(reps.sum())
    idx = np.arange(total, dtype=np.int64)
    starts = np.repeat(np.cumsum(reps) - reps, reps)
    return idx - starts

"""CAGRA-style fully-batched graph construction (Ootomo et al., 2023).

CAGRA (PAPERS.md) showed that a high-recall search graph can be built
entirely from batch operations — no per-vertex search-and-prune loop:

1. **Bootstrap** an intermediate kNN table
   (:func:`~repro.graphs.bruteforce_knn.bootstrap_table`: the caller's,
   else exact blocked top-k up to 2^15 points, else NN-descent).
2. **Rank-based reordering**: for every directed edge ``(u, t)`` at rank
   ``j`` of u's list, count its *detours* — vertices ``m`` earlier in the
   list (rank ``i < j``) whose own list reaches ``t`` at a rank below
   ``j``.  Edges with many detours are redundant for routing; each row is
   reordered by ``(detour_count, rank)`` ascending and truncated to the
   target degree.
3. **Reverse-edge merge**: the final row interleaves the strongest
   forward edges with reverse edges (vertices that selected ``u``),
   backfilled from the forward ordering — giving the bidirectional
   connectivity a plain kNN graph lacks.

Every step here is expressed over ``(n, k)`` id matrices and flat edge
arrays — sorts, ``searchsorted`` rank lookups, segmented cumulative sums —
so there is no per-vertex Python loop anywhere in the build.  The key
trick: with each row of the bootstrap table sorted by neighbor id, the
composite array ``row * n + id`` is *globally* sorted, so a single
``np.searchsorted`` resolves "what rank does ``t`` hold in ``m``'s list"
for millions of ``(m, t)`` pairs at once.

A :class:`~repro.simt.build_cost.BuildCostRecorder` can be attached to
meter the construction kernels through the SIMT cost model.
"""

from __future__ import annotations

# lint: hot-path

from typing import Optional

import numpy as np

from repro.annotations import arr, array_kernel, scalar
from repro.distances import get_metric
from repro.graphs._repair import attach_orphans
from repro.graphs.bruteforce_knn import bootstrap_table, medoid
from repro.graphs.nn_descent import _ragged_arange, _rank_within_groups
from repro.graphs.storage import PAD, FixedDegreeGraph
from repro.simt.build_cost import KEY_BYTES, BuildCostRecorder, maybe_recorder
from repro.structures.soa import pack_rowid, unpack_rowid

__all__ = ["CagraBuilder", "build_cagra"]

#: Detour-count pair budget per vertex block (bounds peak memory of the
#: rank-lookup panels: a block holds ~6 int64 arrays of this many pairs).
_DETOUR_PAIR_BUDGET = 1 << 21


@array_kernel(
    params={"n": (2, 2**28), "k0": (2, 512)},
    args={"table": arr("n", "k0", lo=0, hi="n-1")},
    returns=[
        arr(dtype="int64", lo=0, hi="n*n-1", sorted_=True),
        arr(dtype="int64", lo=0, hi="k0-1"),
    ],
)
def _global_rank_index(table: np.ndarray):
    """Globally-sorted ``row * n + id`` keys plus the matching ranks.

    With each row re-sorted by neighbor id, the composite keys are
    sorted across the whole flat array, so one ``np.searchsorted``
    resolves millions of "what rank does ``t`` hold in ``m``'s list"
    queries at once (the trick the module docstring describes).
    """
    n, k0 = table.shape
    id_order = np.argsort(table, axis=1, kind="stable")
    ids_by_id = np.take_along_axis(table, id_order, axis=1)
    rows = np.arange(n, dtype=np.int64)[:, None]
    flat_sorted = pack_rowid(rows, ids_by_id, n).ravel()
    return flat_sorted, id_order.ravel()


@array_kernel(
    params={"n": (2, 2**28), "k0": (2, 512), "B": (1, 2**28), "P": (1, 2**18)},
    args={
        "rows": arr("B", "k0", lo=0, hi="n-1"),
        "flat_sorted": arr("n*k0", lo=0, hi="n*n-1", sorted_=True),
        "flat_rank": arr("n*k0", lo=0, hi="k0-1"),
        "tri_i": arr("P", lo=0, hi="k0-1"),
        "tri_j": arr("P", lo=0, hi="k0-1"),
        "ends": arr("k0", lo=0, hi="P"),
        "starts": arr("k0", lo=0, hi="P"),
        "n": scalar("n"),
    },
    returns=[arr("B", "k0", dtype="int64", lo=0, hi="P")],
)
def _detour_block_counts(
    rows: np.ndarray,
    flat_sorted: np.ndarray,
    flat_rank: np.ndarray,
    tri_i: np.ndarray,
    tri_j: np.ndarray,
    ends: np.ndarray,
    starts: np.ndarray,
    n: int,
) -> np.ndarray:
    """Detour counts for one vertex block (see ``_detour_counts``)."""
    mid = rows[:, tri_i]
    tgt = rows[:, tri_j]
    query = pack_rowid(mid, tgt, n)
    pos = np.searchsorted(flat_sorted, query)
    np.minimum(pos, flat_sorted.size - 1, out=pos)
    found = flat_sorted[pos] == query
    cond = found & (flat_rank[pos] < tri_j[None, :])
    padded = np.zeros((len(rows), len(tri_j) + 1), dtype=np.int64)
    np.cumsum(cond, axis=1, dtype=np.int64, out=padded[:, 1:])
    return padded[:, ends] - padded[:, starts]


@array_kernel(
    params={"n": (3, 2**28), "k0": (2, 512), "degree": (2, 64)},
    args={
        "fwd_full": arr("n", "k0", lo=0, hi="n-1"),
        "degree": scalar("degree"),
    },
    returns=[arr("n", "degree", dtype="int64", lo=-1, hi="n-1")],
)
def _merge_reverse_rows(fwd_full: np.ndarray, degree: int) -> np.ndarray:
    """Interleave forward and reverse edges into ``(n, degree)`` rows.

    The candidate stream carries a per-``(vertex, candidate)``
    priority: the strongest ``ceil(degree/2)`` forward edges first,
    then up to ``floor(degree/2)`` reverse edges in source-rank
    order, then forward and reverse backfill bands.  One lexsort
    dedups, a second ranks each vertex's survivors, and a scatter
    writes the rows — the whole merge is three sorts.

    The nested reverse-stream key ``(tgt * degree + s_rank) * n + src``
    bounds the builder's capacity: it must fit ``int64``, which holds
    for every ``n <= 2**28`` at ``degree <= 64`` (the declared ranges
    the verifier proves this under).
    """
    n, k0 = fwd_full.shape
    d_fwd = degree - degree // 2
    d_rev = degree // 2
    fwd = fwd_full[:, :degree]

    # forward stream: candidate at reordered position s
    pos = np.arange(k0, dtype=np.int64)
    prio_f = np.where(pos < d_fwd, pos, degree + pos)
    w_f = np.repeat(np.arange(n, dtype=np.int64), k0)
    c_f = fwd_full.ravel()
    p_f = np.tile(prio_f, n)

    # reverse stream: every kept forward edge, transposed; per-target
    # order follows (source rank, source id)
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    s_rank = np.tile(np.arange(degree, dtype=np.int64), n)
    tgt = fwd.ravel()
    comp = pack_rowid(tgt * degree + s_rank, src, n)
    comp.sort()
    outer, c_r = unpack_rowid(comp, n)
    w_r = outer // degree
    r_rank = _rank_within_groups(w_r)
    p_r = np.where(r_rank < d_rev, d_fwd + r_rank, degree + k0 + r_rank)

    w_all = np.concatenate([w_f, w_r])
    c_all = np.concatenate([c_f, c_r])
    p_all = np.concatenate([p_f, p_r])

    # dedup by (vertex, candidate), keeping the strongest priority
    vc = pack_rowid(w_all, c_all, n)
    order = np.lexsort((p_all, vc))
    vc_s = vc[order]
    p_s = p_all[order]
    keep = np.ones(len(vc_s), dtype=bool)
    keep[1:] = vc_s[1:] != vc_s[:-1]
    vc_s = vc_s[keep]
    p_s = p_s[keep]
    w_k, c_k = unpack_rowid(vc_s, n)
    # rank each vertex's survivors by priority and keep the best
    order = np.lexsort((p_s, w_k))
    w_k = w_k[order]
    c_k = c_k[order]
    rank = _rank_within_groups(w_k)
    sel = rank < degree
    out = np.full((n, degree), PAD, dtype=np.int64)
    out[w_k[sel], rank[sel]] = c_k[sel]
    return out


class CagraBuilder:
    """Batched CAGRA-shaped graph construction.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    degree:
        Out-degree of the final graph.
    intermediate_degree:
        Width of the bootstrap kNN table (default ``2 * degree``); must
        be at least ``degree``.
    metric:
        Distance measure name.
    knn_table:
        Optional precomputed ``(n, k0)`` bootstrap table whose rows are
        sorted ascending by distance (position = rank).  When omitted
        :func:`~repro.graphs.bruteforce_knn.bootstrap_table` picks the
        source from the dataset size.
    seed:
        Seed forwarded to NN-descent (large datasets only).
    cost:
        Optional :class:`~repro.simt.build_cost.BuildCostRecorder`; every
        bulk kernel of the build is recorded on it.
    """

    def __init__(
        self,
        data: np.ndarray,
        degree: int = 16,
        intermediate_degree: Optional[int] = None,
        metric: str = "l2",
        knn_table: Optional[np.ndarray] = None,
        seed: int = 0,
        cost: Optional[BuildCostRecorder] = None,
    ) -> None:
        if degree <= 1:
            raise ValueError("degree must be at least 2")
        self.data = np.asarray(data)
        self.degree = degree
        self.intermediate_degree = intermediate_degree or 2 * degree
        if self.intermediate_degree < degree:
            raise ValueError("intermediate_degree must be at least degree")
        self.metric = get_metric(metric)
        self._knn_table = knn_table
        self.seed = seed
        self.cost = cost

    def build(self) -> FixedDegreeGraph:
        """Run bootstrap → reorder → reverse merge; returns the graph."""
        n = len(self.data)
        k0 = self.intermediate_degree
        if n <= k0:
            raise ValueError("dataset too small for the intermediate degree")
        table = bootstrap_table(
            self.data, k0, self.metric.name, self._knn_table, self.seed, self.cost
        )
        counts = self._detour_counts(table)
        fwd_full = self._reorder(table, counts)
        adjacency = self._merge_reverse(fwd_full)
        entry = medoid(self.data, self.metric.name)
        attach_orphans(adjacency, table, entry, self.data, self.metric)
        rec = maybe_recorder(self.cost)
        rec.record_graph_write(adjacency.size)
        return FixedDegreeGraph.from_neighbor_array(
            adjacency, entry_point=entry, validate=False
        )

    # -- stages ----------------------------------------------------------------

    def _detour_counts(self, table: np.ndarray) -> np.ndarray:
        """Detours per edge: ``counts[u, j]`` over mids at rank ``i < j``.

        Pairs are laid out ``j``-major (for each rank ``j``, all mids
        ``i < j``), so per-edge totals fall out of one segmented
        cumulative sum over the pair axis.
        """
        n, k0 = table.shape
        rec = maybe_recorder(self.cost)
        # rank lookup: rows re-sorted by id make row*n + id globally sorted
        flat_sorted, flat_rank = _global_rank_index(table)
        rec.record_sort(n, k0, "rank-index")

        tri_j = np.repeat(np.arange(k0), np.arange(k0))
        tri_i = _ragged_arange(np.arange(k0, dtype=np.int64))
        num_pairs = len(tri_j)
        ends = np.cumsum(np.arange(k0))
        starts = ends - np.arange(k0)

        counts = np.zeros((n, k0), dtype=np.int64)
        block = max(1, _DETOUR_PAIR_BUDGET // max(1, num_pairs))
        a = 0
        while a < n:
            b = min(n, a + block)
            counts[a:b] = _detour_block_counts(
                table[a:b], flat_sorted, flat_rank, tri_i, tri_j, ends, starts, n
            )
            a = b
        rec.record_gather(n * num_pairs, KEY_BYTES, "detour-rank")
        return counts

    def _reorder(self, table: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Rows reordered by ``(detour_count, rank)`` ascending."""
        n, k0 = table.shape
        priority = counts * np.int64(k0) + np.arange(k0, dtype=np.int64)
        order = np.argsort(priority, axis=1, kind="stable")
        maybe_recorder(self.cost).record_sort(n, k0, "reorder")
        return np.take_along_axis(table, order, axis=1)

    def _merge_reverse(self, fwd_full: np.ndarray) -> np.ndarray:
        """Reverse-edge merge (see :func:`_merge_reverse_rows`)."""
        n, k0 = fwd_full.shape
        rec = maybe_recorder(self.cost)
        rec.record_flat_sort(n * k0 + n * self.degree, "reverse-merge")
        return _merge_reverse_rows(fwd_full, self.degree)


def build_cagra(
    data: np.ndarray,
    degree: int = 16,
    intermediate_degree: Optional[int] = None,
    metric: str = "l2",
    knn_table: Optional[np.ndarray] = None,
    seed: int = 0,
    cost: Optional[BuildCostRecorder] = None,
) -> FixedDegreeGraph:
    """One-call CAGRA construction (see :class:`CagraBuilder`)."""
    return CagraBuilder(
        data,
        degree=degree,
        intermediate_degree=intermediate_degree,
        metric=metric,
        knn_table=knn_table,
        seed=seed,
        cost=cost,
    ).build()

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
arrays — gathers, sorts, histograms — so there is no per-vertex Python
loop anywhere in the build.  The detour count is CAGRA's own kernel
(Ootomo et al., Sec. III-B "rank-based reordering"): each source row
``u`` walks its 2-hop neighbourhood ``table[table[u, i], r]`` and looks
every id it meets up in a map of *its own* list (id → rank, held on chip
there, in an L1-sized stripe of a small-int scratch here).  A hit at rank
``j > max(i, r)`` is one detour of edge ``(u, j)``; nothing is searched
in a global index.

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
from repro.graphs.nn_descent import _rank_within_groups
from repro.graphs.storage import PAD, FixedDegreeGraph
from repro.simt.build_cost import KEY_BYTES, BuildCostRecorder, maybe_recorder
from repro.structures.soa import pack_rowid, unpack_rowid

__all__ = ["CagraBuilder", "build_cagra"]

#: Bytes one block of source rows may hold in the detour walk: per row,
#: its ``2 n``-byte stripe of the int16 rank scratch plus ``11 k0^2`` of
#: panels (int64 2-hop ids, int16 ranks, bool hits) — looked up at random
#: and streamed once, so they must sit in L2 together.  Benchmark VM
#: (4 MiB L2 per core), ms for the stage at ``k0 = 64``, best of 5, at
#: 128 / 256 / 384 / 512 / 768 KiB / 1 / 2 / 4 MiB:
#:
#:   glove200 n=4000    113 /   92 /  82 /  82 /  91 /  85 /  87 /  86
#:   sift     n=8000    265 /  184 / 173 / 163 / 206 / 182 / 182 / 199
#:   gist     n=8000    194 /  162 / 161 / 161 / 164 / 183 / 177 / 171
#:   sift     n=30000  1454 / 1155 / 902 / 726 / 780 / 772 / 806 / 838
#:
#: Sized for that machine, deliberately not a setting.
_WALK_BYTES = 512 * 1024

#: Ranks live in the scratch as int16 (``-1`` = not in the row).
_MAX_INTERMEDIATE_DEGREE = 2**15 - 1


@array_kernel(
    params={"n": (3, 2**28), "k0": (2, 512), "b": (1, 2**28)},
    args={
        "table": arr("n", "k0", lo=0, hi="n-1"),
        "rows": arr("b", "k0", lo=0, hi="n-1"),
        "pos": arr("b", "n", dtype="int16", lo=-1, hi=-1),
        "later": arr("k0", "k0", dtype="int16", lo=0, hi="k0-1"),
    },
    returns=[arr("b", "k0", dtype="int64", lo=0, hi="k0*k0")],
)
def _detour_walk(
    table: np.ndarray, rows: np.ndarray, pos: np.ndarray, later: np.ndarray
) -> np.ndarray:
    """Detour counts of one block of source rows (see ``_detour_counts``).

    ``rows`` is the block's slice of ``table``, ``pos`` its C-contiguous
    ``(b, n)`` scratch — all ``-1`` on entry and again on return — and
    ``later[i, r] = max(i, r)``.
    """
    b, k0 = rows.shape
    n = len(table)
    u = np.arange(b, dtype=np.int64)[:, None]
    pos[u, rows] = np.arange(k0, dtype=np.int16)
    # two[u, i, r] = table[table[u, i], r], shifted into row u's stripe
    two = table[rows]
    two += (u * n)[:, :, None]
    j = pos.ravel()[two]
    # an id the row does not hold reads -1 and fails the test by itself
    hits = np.flatnonzero(j > later)
    key = hits // (k0 * k0) * k0 + j.ravel()[hits]
    pos[u, rows] = -1
    return np.bincount(key, minlength=b * k0).reshape(b, k0)


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
        if self.intermediate_degree > _MAX_INTERMEDIATE_DEGREE:
            raise ValueError(
                f"intermediate_degree must be at most {_MAX_INTERMEDIATE_DEGREE}"
            )
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

        ``counts[u, j]`` is the number of ranks ``i < j`` whose vertex
        ``table[u, i]`` holds ``table[u, j]`` at a rank below ``j`` in its
        own row, counted by the 2-hop walk of the module docstring a
        block of source rows at a time (:func:`_detour_walk`, block
        height from ``_WALK_BYTES``): O(rows * k0^2) a block whatever
        ``n`` is, because only the marks a row wrote are cleared.

        Precondition (what :func:`bootstrap_table` guarantees): ids lie
        in ``[0, n)`` and no row holds an id twice — a row's map has one
        rank per id.  A row may hold its own index.
        """
        n, k0 = table.shape
        rec = maybe_recorder(self.cost)
        # the modeled device builds each row's id -> rank map by sorting it
        rec.record_sort(n, k0, "rank-index")

        num_pairs = k0 * (k0 - 1) // 2
        block = min(n, max(1, _WALK_BYTES // (2 * n + 11 * k0 * k0)))
        pos = np.full((block, n), -1, dtype=np.int16)
        ranks = np.arange(k0, dtype=np.int16)
        later = np.maximum(ranks[:, None], ranks)
        counts = np.empty((n, k0), dtype=np.int64)
        a = 0
        while a < n:
            b = min(n, a + block)
            counts[a:b] = _detour_walk(table, table[a:b], pos[: b - a], later)
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

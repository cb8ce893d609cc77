"""Navigating spreading-out graph construction (Fu et al., VLDB 2019).

Fig. 12 of the SONG paper shows SONG accelerating a pre-built NSG index.
NSG refines an (approximate) kNN graph: a single navigating node (the
medoid) is the fixed search entry, each vertex's candidate pool is pruned
by the monotonic-RNG rule ("keep an edge unless a kept neighbor is closer
to the candidate than the vertex is"), and a spanning tree from the
navigating node is patched in so every vertex stays reachable.

The whole build is batch kernels — no per-vertex Python loop anywhere.
The bootstrap table comes from
:func:`~repro.graphs.bruteforce_knn.bootstrap_table` (exact up to 2^15
points).  Candidate pools for *every* vertex come from lockstep
:class:`~repro.core.batched.BatchedSongSearcher` sweeps over the
table-as-graph; pools are merged, deduplicated and distance-sorted with
flat lexsorts; the monotonic-RNG prune runs as a generation-batched
occlusion fixpoint — each round every still-active vertex accepts its
first unresolved candidate, then one fused
:meth:`~repro.distances.metrics.Metric.pair_many` tile occludes the
dominated remainder — the accept/occlude decisions of NSG Algorithm 2,
taken for all rows at once; and
:func:`~repro.graphs._repair.attach_orphans` restores reachability.

Search recall is held to brute-force ground truth in
``tests/test_graph_quality.py``; the adjacency is pinned by digest in
``tests/test_build_paths.py``.
"""

from __future__ import annotations

# lint: hot-path

from typing import Optional, Tuple

import numpy as np

from repro.distances import get_metric
from repro.graphs._repair import attach_orphans
from repro.graphs.bruteforce_knn import bootstrap_table, medoid
from repro.graphs.storage import PAD, FixedDegreeGraph
from repro.simt.build_cost import maybe_recorder
from repro.structures.soa import pack_rowid, unpack_rowid

__all__ = ["NSGBuilder", "build_nsg"]

#: Queries per lockstep candidate-pool sweep (bounds the searcher's
#: per-batch frontier/visited state).
_POOL_CHUNK = 1024


def _dedup_pool_edges(
    owner: np.ndarray, cand: np.ndarray, dist: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dedup flat pool edges and rank them per owner by distance.

    Each ``(owner, cand)`` pair keeps its smallest distance, survivors
    are sorted per owner by ``(distance, cand)``, and ``rank`` is each
    edge's 0-based position within its owner's run — ready for a
    ``pool[owner, rank]`` scatter.
    """
    from repro.graphs.nn_descent import _rank_within_groups

    vc = pack_rowid(owner, cand, n)
    order = np.lexsort((dist, vc))
    vc_s, dist_s = vc[order], dist[order]
    keep = np.ones(len(vc_s), dtype=bool)
    keep[1:] = vc_s[1:] != vc_s[:-1]
    vc_s, dist_s = vc_s[keep], dist_s[keep]
    owner_k, cand_k = unpack_rowid(vc_s, n)
    order = np.lexsort((cand_k, dist_s, owner_k))
    owner_k, cand_k, dist_s = owner_k[order], cand_k[order], dist_s[order]
    rank = _rank_within_groups(owner_k)
    return owner_k, cand_k, dist_s, rank


class NSGBuilder:
    """NSG construction over a base kNN graph.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    degree:
        Out-degree bound ``R`` of the final graph.
    knn:
        Neighbors in the bootstrap kNN graph.
    search_len:
        Candidate-pool size ``L`` gathered per vertex before pruning.
    metric:
        Distance measure name.
    knn_table:
        Optional precomputed ``(n, knn)`` neighbor table (e.g. from
        NN-descent); overrides the bootstrap stage when given.
    cost:
        Optional :class:`~repro.simt.build_cost.BuildCostRecorder`;
        every bulk kernel of the build is recorded on it.
    """

    def __init__(
        self,
        data: np.ndarray,
        degree: int = 16,
        knn: int = 16,
        search_len: int = 48,
        metric: str = "l2",
        knn_table: np.ndarray = None,
        cost: Optional[object] = None,
    ) -> None:
        if degree <= 0:
            raise ValueError("degree must be positive")
        self.data = np.asarray(data)
        self.degree = degree
        self.knn = knn
        self.search_len = max(search_len, degree)
        self.metric = get_metric(metric)
        self._knn_table = knn_table
        self.cost = cost

    def build(self) -> FixedDegreeGraph:
        """Run the full NSG pipeline and return the fixed-degree graph."""
        n = len(self.data)
        if n <= self.knn:
            raise ValueError("dataset too small for the requested knn")
        table = bootstrap_table(
            self.data, self.knn, self.metric.name, self._knn_table, cost=self.cost
        )
        nav = medoid(self.data, self.metric.name)
        ci, cd = self._gather_pools(table, nav)
        adjacency = self._occlusion_prune(ci, cd)
        attach_orphans(adjacency, table, nav, self.data, self.metric)
        maybe_recorder(self.cost).record_graph_write(adjacency.size)
        return FixedDegreeGraph.from_neighbor_array(
            adjacency, entry_point=nav, validate=False
        )

    def _gather_pools(
        self, table: np.ndarray, nav: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Distance-sorted candidate pools for every vertex at once.

        Lockstep searches over the kNN table-as-graph (every lane starts
        at the navigating node) produce up to
        ``search_len`` candidates per vertex; each vertex's own kNN row
        joins the pool, and one flat lexsort dedups and orders the union
        by ``(distance, id)``.  Returns ``(ids, dists)`` as ``(n, P)``
        matrices padded with ``PAD`` / ``inf``.
        """
        from repro.core.batched import BatchedSongSearcher
        from repro.core.config import SearchConfig
        from repro.graphs.nn_descent import _pair_distances, _ragged_arange
        rec = maybe_recorder(self.cost)
        n, knn = table.shape
        dim = self.data.shape[1]
        data32 = np.ascontiguousarray(self.data, dtype=np.float32)
        knn_graph = FixedDegreeGraph.from_neighbor_array(
            table, entry_point=nav, validate=False
        )
        searcher = BatchedSongSearcher(knn_graph, data32)
        config = SearchConfig(
            k=self.search_len,
            queue_size=self.search_len,
            metric=self.metric.name,
        )
        width = self.search_len + knn
        pool_ids = np.full((n, width), PAD, dtype=np.int64)
        pool_d = np.full((n, width), np.inf, dtype=np.float64)
        flops = self.metric.flops_per_distance(dim)
        a = 0
        while a < n:
            b = min(n, a + _POOL_CHUNK)
            results, stats = searcher.search_batch_with_stats(data32[a:b], config)
            lens = np.fromiter((len(r) for r in results), np.int64, count=b - a)
            flat = np.asarray(
                [p for r in results for p in r], dtype=np.float64
            ).reshape(-1, 2)
            if len(flat):
                owners = np.repeat(np.arange(a, b, dtype=np.int64), lens)
                slots = _ragged_arange(lens)
                pool_d[owners, slots] = flat[:, 0]
                pool_ids[owners, slots] = flat[:, 1].astype(np.int64)
            rec.record_search(
                iterations=sum(s.iterations for s in stats),
                distances=sum(s.distance_computations for s in stats),
                degree=knn,
                flops_per_distance=flops,
                dim=dim,
                queue_width=self.search_len,
                name="pool",
            )
            a = b

        # merge each vertex's own kNN row into its pool
        if self.metric.name == "l2":
            pair_cache = self.metric.point_sq_norms(data32)
        elif self.metric.name == "cosine":
            pair_cache = self.metric.point_norms(data32)
        else:
            pair_cache = None
        knn_owner = np.repeat(np.arange(n, dtype=np.int64), knn)
        knn_flat = table.ravel().astype(np.int64)
        knn_d = _pair_distances(data32, knn_owner, knn_flat, self.metric, pair_cache)
        rec.record_distances(len(knn_flat), flops, dim, "pool-knn")
        pool_ids[:, self.search_len :] = table
        pool_d[:, self.search_len :] = knn_d.reshape(n, knn)

        # drop self-references, then dedup + sort the flat pool
        owner = np.repeat(np.arange(n, dtype=np.int64), width)
        cand = pool_ids.ravel()
        dist = pool_d.ravel()
        valid = (cand >= 0) & (cand != owner)
        owner, cand, dist = owner[valid], cand[valid], dist[valid]
        owner_k, cand_k, dist_s, rank = _dedup_pool_edges(owner, cand, dist, n)
        rec.record_flat_sort(len(owner), "pool-dedup")

        ci = np.full((n, width), PAD, dtype=np.int64)
        cd = np.full((n, width), np.inf, dtype=np.float64)
        ci[owner_k, rank] = cand_k
        cd[owner_k, rank] = dist_s
        return ci, cd

    def _occlusion_prune(self, ci: np.ndarray, cd: np.ndarray) -> np.ndarray:
        """Monotonic-RNG selection as a generation-batched fixpoint.

        Invariant per round: in every active row all undecided
        candidates sit *after* the first one (pools are distance-sorted
        and earlier slots are already chosen or occluded), so accepting
        the first undecided candidate is exactly a sequential scan's next
        accept.  The new pick then occludes every remaining undecided
        candidate it dominates — one fused ``pair_many`` tile for the
        whole generation, the batched twin of NSG Algorithm 2's inner
        loop.
        """
        from repro.graphs.nn_descent import _pair_distances
        rec = maybe_recorder(self.cost)
        n, width = ci.shape
        dim = self.data.shape[1]
        data32 = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.metric.name == "l2":
            pair_cache = self.metric.point_sq_norms(data32)
        elif self.metric.name == "cosine":
            pair_cache = self.metric.point_norms(data32)
        else:
            pair_cache = None
        flops = self.metric.flops_per_distance(dim)

        # 0 = undecided, 1 = chosen, 2 = occluded (PAD slots start occluded)
        state = np.zeros((n, width), dtype=np.int8)  # lint: allow(narrow-int) states 0..2
        state[ci == PAD] = 2
        chosen_cnt = np.zeros(n, dtype=np.int64)
        out = np.full((n, self.degree), PAD, dtype=np.int64)
        while True:
            undecided = state == 0
            active = np.nonzero(undecided.any(axis=1) & (chosen_cnt < self.degree))[0]
            if not len(active):
                break
            first = np.argmax(undecided[active], axis=1)
            picked = ci[active, first]
            out[active, chosen_cnt[active]] = picked
            state[active, first] = 1
            chosen_cnt[active] += 1
            rows_u, cols_u = np.nonzero(state[active] == 0)
            if not len(rows_u):
                continue
            owner_rows = active[rows_u]
            d_cu = _pair_distances(
                data32, picked[rows_u], ci[owner_rows, cols_u],
                self.metric, pair_cache,
            )
            occluded = d_cu < cd[owner_rows, cols_u]
            state[owner_rows[occluded], cols_u[occluded]] = 2
            rec.record_distances(len(rows_u), flops, dim, "occlude")
        rec.record_sort(n, width, "prune-rank")
        return out


def build_nsg(
    data: np.ndarray,
    degree: int = 16,
    knn: int = 16,
    search_len: int = 48,
    metric: str = "l2",
    knn_table: np.ndarray = None,
    cost: Optional[object] = None,
) -> FixedDegreeGraph:
    """One-call NSG construction (see :class:`NSGBuilder`)."""
    return NSGBuilder(
        data,
        degree=degree,
        knn=knn,
        search_len=search_len,
        metric=metric,
        knn_table=knn_table,
        cost=cost,
    ).build()

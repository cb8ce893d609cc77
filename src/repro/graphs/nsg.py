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
table-as-graph, read straight from the sweeps'
:class:`~repro.core.batched.LaneResults` arrays; each vertex's own kNN
row joins its pool, scored by
:meth:`~repro.distances.metrics.Metric.gather_many` like the search
scores; :func:`~repro.graphs._prune.dedup_pool_edges` dedups and
distance-sorts the pools in flat lexsorts; the monotonic-RNG prune is
:func:`~repro.graphs._prune.occlusion_select`, HNSW's column loop
without its backfill — the accept/occlude decisions of NSG Algorithm 2,
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
from repro.graphs._prune import dedup_pool_edges, occlusion_select
from repro.graphs._repair import attach_orphans
from repro.graphs.bruteforce_knn import bootstrap_table, medoid
from repro.graphs.storage import PAD, FixedDegreeGraph
from repro.simt.build_cost import maybe_recorder

__all__ = ["NSGBuilder", "build_nsg"]

#: Queries per lockstep candidate-pool sweep (bounds the searcher's
#: per-batch frontier/visited state).
_POOL_CHUNK = 1024


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
        Optional precomputed ``(n, knn)`` neighbor table; overrides the
        bootstrap stage when given.
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
        """Run the full NSG pipeline and return the fixed-degree graph.

        Raises ``ValueError`` naming the first row that holds a NaN or an
        infinity once cast to float32.
        """
        from repro.core.song import require_finite

        n = len(self.data)
        data32 = np.ascontiguousarray(self.data, dtype=np.float32)
        require_finite(data32, "NSGBuilder data")
        if n <= self.knn:
            raise ValueError("dataset too small for the requested knn")
        table = bootstrap_table(
            self.data, self.knn, self.metric.name, self._knn_table, cost=self.cost
        )
        nav = medoid(self.data, self.metric.name)
        ci, cd = self._gather_pools(data32, table, nav)
        adjacency = occlusion_select(
            self.metric, data32, ci, cd, self.degree, backfill=False, cost=self.cost
        )
        rec = maybe_recorder(self.cost)
        rec.record_sort(n, ci.shape[1], "prune-rank")
        attach_orphans(adjacency, table, nav, self.data, self.metric)
        rec.record_graph_write(adjacency.size)
        return FixedDegreeGraph.from_neighbor_array(
            adjacency, entry_point=nav, validate=False
        )

    def _gather_pools(
        self, data32: np.ndarray, table: np.ndarray, nav: int
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

        rec = maybe_recorder(self.cost)
        n, knn = table.shape
        dim = data32.shape[1]
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
        # every slot is written: sweep results are search_len wide, PAD-tailed
        pool_ids = np.empty((n, width), dtype=np.int64)
        pool_d = np.empty((n, width), dtype=np.float32)
        flops = self.metric.flops_per_distance(dim)
        a = 0
        while a < n:
            b = min(n, a + _POOL_CHUNK)
            results, stats = searcher.search_batch_with_stats(data32[a:b], config)
            pool_ids[a:b, : self.search_len] = results.ids
            pool_d[a:b, : self.search_len] = results.dists
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

        # each vertex's own kNN row joins its pool
        owner = np.repeat(np.arange(n, dtype=np.int64), knn)
        pool_ids[:, self.search_len :] = table
        pool_d[:, self.search_len :] = self.metric.gather_many(
            data32, owner, data32, table.ravel()
        ).reshape(n, knn)
        rec.record_distances(n * knn, flops, dim, "pool-knn")

        # drop self-references, then dedup + sort the flat pool
        owner = np.repeat(np.arange(n, dtype=np.int64), width)
        cand = pool_ids.ravel()
        dist = pool_d.ravel()
        valid = (cand >= 0) & (cand != owner)
        owner, cand, dist = owner[valid], cand[valid], dist[valid]
        owner_k, cand_k, dist_s, rank = dedup_pool_edges(owner, cand, dist, n)
        rec.record_flat_sort(len(owner), "pool-dedup")

        ci = np.full((n, width), PAD, dtype=np.int64)
        cd = np.full((n, width), np.inf, dtype=np.float32)
        ci[owner_k, rank] = cand_k
        cd[owner_k, rank] = dist_s
        return ci, cd


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

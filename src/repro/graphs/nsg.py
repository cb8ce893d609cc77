"""Navigating spreading-out graph construction (Fu et al., VLDB 2019).

Fig. 12 of the SONG paper shows SONG accelerating a pre-built NSG index.
NSG refines an (approximate) kNN graph: a single navigating node (the
medoid) is the fixed search entry, each vertex's candidate pool is pruned
by the monotonic-RNG rule ("keep an edge unless a kept neighbor is closer
to the candidate than the vertex is"), and a spanning tree from the
navigating node is patched in so every vertex stays reachable.

Two engines build the same graph shape:

``serial``
    The readable reference — a per-vertex greedy search feeds a
    per-candidate occlusion loop, exactly Algorithm 2 of the NSG paper.
``batched``
    The vectorized path.  Candidate pools for *every* vertex come from
    lockstep :class:`~repro.core.batched.BatchedSongSearcher` sweeps over
    the bootstrap kNN table-as-graph; pools are merged, deduplicated and
    distance-sorted with flat lexsorts; and the monotonic-RNG prune runs
    as a generation-batched occlusion fixpoint — each round every
    still-active vertex accepts its first unresolved candidate, then one
    fused :meth:`~repro.distances.metrics.Metric.pair_many` tile occludes
    the dominated remainder.  No per-vertex Python loop anywhere.

The engines make identical accept/occlude decisions up to floating-point
noise: the batched path evaluates L2 via the norm identity
(``pair_many``) while the serial path subtracts coordinates
(``Metric.single``), so candidates at near-exact occlusion ties can
resolve differently.  Equivalence is therefore validated at recall level
(see ``tests/test_graph_quality.py``), not bit level.
"""

from __future__ import annotations

# lint: hot-path

from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from repro.annotations import arr, array_kernel, scalar
from repro.distances import get_metric
from repro.graphs._repair import attach_orphans
from repro.graphs._search import greedy_search
from repro.graphs.bruteforce_knn import knn_neighbors, medoid
from repro.graphs.storage import PAD, FixedDegreeGraph
from repro.structures.soa import pack_rowid, unpack_rowid

__all__ = ["NSGBuilder", "build_nsg"]

#: Queries per lockstep candidate-pool sweep (bounds the searcher's
#: per-batch frontier/visited state).
_POOL_CHUNK = 1024


@array_kernel(
    params={"n": (2, 2**31), "E": (1, 2**40)},
    args={
        "owner": arr("E", lo=0, hi="n-1"),
        "cand": arr("E", lo=0, hi="n-1"),
        "dist": arr("E", dtype="float64"),
        "n": scalar("n"),
    },
    returns=[
        arr(lo=0, hi="n-1"),
        arr(lo=0, hi="n-1"),
        arr(dtype="float64"),
        arr(lo=0),
    ],
)
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
    build_engine:
        ``"batched"`` (default) bootstraps with vectorized NN-descent
        and runs pool gathering and occlusion pruning as batch kernels;
        ``"serial"`` runs the reference per-vertex search-and-prune
        loops over an exact brute-force table.
    cost:
        Optional :class:`~repro.simt.build_cost.BuildCostRecorder`; the
        batched engine records every bulk kernel of the build on it.
    """

    def __init__(
        self,
        data: np.ndarray,
        degree: int = 16,
        knn: int = 16,
        search_len: int = 48,
        metric: str = "l2",
        knn_table: np.ndarray = None,
        build_engine: str = "batched",
        cost: Optional[object] = None,
    ) -> None:
        from repro.graphs.nn_descent import BUILD_ENGINES

        if degree <= 0:
            raise ValueError("degree must be positive")
        if build_engine not in BUILD_ENGINES:
            raise ValueError(
                f"unknown build_engine {build_engine!r}; "
                f"expected one of {BUILD_ENGINES}"
            )
        self.data = np.asarray(data)
        self.degree = degree
        self.knn = knn
        self.search_len = max(search_len, degree)
        self.metric = get_metric(metric)
        self._knn_table = knn_table
        self.build_engine = build_engine
        self.cost = cost

    def build(self) -> FixedDegreeGraph:
        """Run the full NSG pipeline and return the fixed-degree graph."""
        n = len(self.data)
        if n <= self.knn:
            raise ValueError("dataset too small for the requested knn")
        if self._knn_table is not None:
            table = np.asarray(self._knn_table)
        elif self.build_engine == "batched":
            from repro.graphs.nn_descent import nn_descent

            table = nn_descent(
                self.data, self.knn, metric=self.metric.name, seed=0,
                cost=self.cost,
            )
        else:
            table = knn_neighbors(self.data, self.knn, self.metric.name)
        nav = medoid(self.data, self.metric.name)
        if self.build_engine == "batched":
            return self._build_batched(table, nav)
        return self._build_serial(table, nav)

    # -- batched engine --------------------------------------------------------

    def _build_batched(self, table: np.ndarray, nav: int) -> FixedDegreeGraph:
        """Pool sweep → flat dedup/sort → occlusion fixpoint → repair."""
        ci, cd = self._batched_pools(table, nav)
        adjacency = self._batched_prune(ci, cd)
        attach_orphans(adjacency, table.astype(np.int64), nav, self.data, self.metric)
        from repro.simt.build_cost import maybe_recorder

        maybe_recorder(self.cost).record_graph_write(adjacency.size)
        return FixedDegreeGraph.from_neighbor_array(
            adjacency, entry_point=nav, validate=False
        )

    def _batched_pools(
        self, table: np.ndarray, nav: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Distance-sorted candidate pools for every vertex at once.

        Lockstep searches over the kNN table-as-graph (every lane starts
        at the navigating node, like the serial path) produce up to
        ``search_len`` candidates per vertex; each vertex's own kNN row
        joins the pool, and one flat lexsort dedups and orders the union
        by ``(distance, id)``.  Returns ``(ids, dists)`` as ``(n, P)``
        matrices padded with ``PAD`` / ``inf``.
        """
        from repro.core.batched import BatchedSongSearcher
        from repro.core.config import SearchConfig
        from repro.graphs.nn_descent import _pair_distances, _ragged_arange
        from repro.simt.build_cost import maybe_recorder

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

    def _batched_prune(self, ci: np.ndarray, cd: np.ndarray) -> np.ndarray:
        """Monotonic-RNG selection as a generation-batched fixpoint.

        Invariant per round: in every active row all undecided
        candidates sit *after* the first one (pools are distance-sorted
        and earlier slots are already chosen or occluded), so accepting
        the first undecided candidate is exactly the serial scan's next
        accept.  The new pick then occludes every remaining undecided
        candidate it dominates — one fused ``pair_many`` tile for the
        whole generation, the batched twin of NSG Algorithm 2's inner
        loop.
        """
        from repro.graphs.nn_descent import _pair_distances
        from repro.simt.build_cost import maybe_recorder

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
        state = np.zeros((n, width), dtype=np.int8)
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

    # -- serial engine ---------------------------------------------------------

    def _build_serial(self, table: np.ndarray, nav: int) -> FixedDegreeGraph:
        """The reference per-vertex pipeline (NSG Algorithm 2)."""
        n = len(self.data)
        adj: List[List[int]] = [[] for _ in range(n)]
        for v in range(n):  # lint: allow(hot-loop) — serial reference engine
            pool = self._candidate_pool(v, nav, table)
            adj[v] = self._prune(v, pool)

        self._fix_connectivity(adj, nav)
        graph = FixedDegreeGraph(n, self.degree, entry_point=nav)
        for v in range(n):  # lint: allow(hot-loop) — serial reference engine
            graph.set_neighbors(v, adj[v][: self.degree])
        return graph

    def _candidate_pool(
        self, v: int, nav: int, table: np.ndarray
    ) -> List[Tuple[float, int]]:
        """Candidates for v: search path from the navigating node + kNN row."""
        found = greedy_search(
            self.data,
            lambda u: table[u],
            self.data[v],
            ef=self.search_len,
            entry_points=[nav],
            metric=self.metric,
        )
        pool = {u: d for d, u in found if u != v}
        for u in table[v]:
            u = int(u)
            if u != v and u not in pool:
                pool[u] = self.metric.single(self.data[v], self.data[u])
        return sorted((d, u) for u, d in pool.items())

    def _prune(self, v: int, pool: List[Tuple[float, int]]) -> List[int]:
        """Monotonic-RNG edge selection (NSG Algorithm 2)."""
        chosen: List[Tuple[float, int]] = []
        for d, u in pool:
            if len(chosen) >= self.degree:
                break
            ok = True
            for _, w in chosen:
                if self.metric.single(self.data[u], self.data[w]) < d:
                    ok = False
                    break
            if ok:
                chosen.append((d, u))
        return [u for _, u in chosen]

    def _fix_connectivity(self, adj: List[List[int]], nav: int) -> None:
        """Attach unreachable vertices so a DFS tree from ``nav`` spans all."""
        n = len(adj)
        while True:
            seen = self._reachable(adj, nav)
            missing = [v for v in range(n) if v not in seen]
            if not missing:
                return
            v = missing[0]
            # link v from its nearest reachable vertex with slack; if none has
            # slack, replace the farthest edge of the nearest reachable vertex.
            reachable = sorted(seen)
            dists = self.metric.batch(self.data[v], self.data[reachable])
            order = np.argsort(dists, kind="stable")
            attached = False
            for idx in order:  # lint: allow(hot-loop) — serial reference engine
                u = reachable[int(idx)]
                if len(adj[u]) < self.degree:
                    adj[u].append(v)
                    attached = True
                    break
            if not attached:
                u = reachable[int(order[0])]
                drop = max(
                    range(len(adj[u])),
                    key=lambda i: self.metric.single(
                        self.data[u], self.data[adj[u][i]]
                    ),
                )
                adj[u][drop] = v

    @staticmethod
    def _reachable(adj: List[List[int]], start: int) -> set:
        seen = {start}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        return seen


def build_nsg(
    data: np.ndarray,
    degree: int = 16,
    knn: int = 16,
    search_len: int = 48,
    metric: str = "l2",
    knn_table: np.ndarray = None,
    build_engine: str = "batched",
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
        build_engine=build_engine,
        cost=cost,
    ).build()

"""Hierarchical navigable small world graphs (Malkov & Yashunin, 2018).

The paper's CPU comparator.  Full implementation: exponential layer
assignment, greedy descent through upper layers, ef-bounded best-first
search at layer 0, and the heuristic neighbor-selection rule (keep a
candidate only if it is closer to the inserted point than to every
already-kept neighbor) that gives HNSW its pruned, diverse edges.

Construction inserts points in generation batches, batched per (layer,
generation): levels are pre-drawn (one RNG draw per point, in insertion
order), every lane descends the upper hierarchy in a vectorized lockstep
hill-climb, and each layer's insertions — upper layers included — run
as one lockstep :class:`~repro.core.batched.BatchedSongSearcher` sweep
seeded per-lane from the descent.  Neighbor selection and back-link
pruning use a precomputed pairwise-distance matrix instead of per-pair
``metric.single`` calls.  Generations are capped at the inserted prefix
(doubling schedule) and at ``_INSERT_BATCH``.

Points within a generation search pre-generation snapshots and do not
see each other.  That costs recall at small ``ef`` — layer-0 recall@10 at
queue 64 reads 0.90–0.97 on the sift analogue (n = 500–4000) where
one-point-at-a-time insertion reads 0.93–0.99 — and buys build time:
0.52 / 1.0 / 2.1 / 4.2 s against 0.63 / 1.3 / 3.0 / 6.7 s at those
sizes.  Unlike NSW (:mod:`repro.graphs.nsw`), HNSW rows are
degree-capped as they grow, so a generation's fixed-degree snapshot
carries almost no padding and the lockstep engine is not wasted on it.
Search recall is held to brute-force ground truth in
``tests/test_graph_quality.py``.
"""

from __future__ import annotations

# lint: hot-path

import heapq
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.distances import OpCounter, get_metric
from repro.graphs.storage import FixedDegreeGraph

__all__ = ["HNSWIndex"]

#: Smallest generation the scheduler will emit.
_MIN_GENERATION = 8

#: Hard cap on one generation's size (bounds the lockstep searcher's
#: per-batch frontier/visited state).
_INSERT_BATCH = 512


class HNSWIndex:
    """In-memory HNSW index.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset (kept by reference).
    m:
        Out-degree target for layers above 0; layer 0 allows ``2 * m``.
    ef_construction:
        Candidate-list width used while inserting.
    metric:
        Distance measure name.
    seed:
        RNG seed for level assignment.
    """

    def __init__(
        self,
        data: np.ndarray,
        m: int = 8,
        ef_construction: int = 64,
        metric: str = "l2",
        seed: int = 0,
    ) -> None:
        if m <= 1:
            raise ValueError("m must be at least 2")
        self.data = np.asarray(data)
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = max(ef_construction, m)
        self.metric = get_metric(metric)
        self._mult = 1.0 / math.log(m)
        self._rng = np.random.default_rng(seed)
        # layers[l][v] -> neighbor list; vertex present iff v in layers[l]
        self._layers: List[dict] = []
        self.entry_point: Optional[int] = None
        self._levels: List[int] = []
        self.built = False

    # -- construction ----------------------------------------------------

    def build(self) -> "HNSWIndex":
        """Insert every data point, one generation batch at a time."""
        n = len(self.data)
        # one draw per point, in insertion order
        levels = [self._random_level() for _ in range(n)]
        self._levels = levels
        if n:
            # the first point founds every layer up to its level
            self._layers = [{0: []} for _ in range(levels[0] + 1)]
            self.entry_point = 0
            data32 = np.ascontiguousarray(self.data, dtype=np.float32)
            lvl_arr = np.asarray(levels, dtype=np.int64)
            pos = 1
            while pos < n:
                size = min(n - pos, max(_MIN_GENERATION, pos), _INSERT_BATCH)
                batch = np.arange(pos, pos + size, dtype=np.int64)
                self._insert_generation(batch, lvl_arr[batch], data32)
                pos += size
        self.built = True
        return self

    def _random_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._mult)

    def _insert_generation(
        self, batch: np.ndarray, lvls: np.ndarray, data32: np.ndarray
    ) -> None:
        """Insert one generation, batched per layer.

        Every lane descends the upper hierarchy in a lockstep vectorized
        hill-climb (:meth:`_greedy_batch`), then — per layer, from its
        insertion level down — joins that layer's lockstep
        :class:`~repro.core.batched.BatchedSongSearcher` sweep and links
        from its results.  Lanes within a generation search pre-generation
        snapshots, so they do not see each other; the entry point updates
        after the generation with the running-max rule.
        """
        from repro.core.batched import BatchedSongSearcher
        from repro.core.config import SearchConfig

        n = len(data32)
        old_top = self._levels[self.entry_point]
        top_new = int(max(lvls.max(), old_top))
        while len(self._layers) <= top_new:
            self._layers.append({})
        # register membership for every (vertex, layer) pair up front;
        # layers above the current top stay empty rows because no search
        # runs there yet
        l = top_new
        while l >= 0:
            self._layers[l].update({int(v): [] for v in batch[lvls >= l]})
            l -= 1

        eps = np.full(len(batch), self.entry_point, dtype=np.int64)
        queries = data32[batch]
        config = SearchConfig(
            k=self.ef_construction,
            queue_size=self.ef_construction,
            metric=self.metric.name,
        )
        l = old_top
        while l >= 0:
            inserting = lvls >= l
            snapshot = FixedDegreeGraph.from_adjacency(
                [self._layers[l].get(v, ()) for v in range(n)],
                entry_point=self.entry_point,
                validate=False,
            )
            if l > 0 and not inserting.all():
                idx = np.nonzero(~inserting)[0]
                eps[idx] = self._greedy_batch(
                    snapshot.adjacency_array, queries[idx], eps[idx], data32
                )
            if inserting.any():
                idx = np.nonzero(inserting)[0]
                searcher = BatchedSongSearcher(snapshot, data32)
                results = searcher.search_batch(
                    queries[idx], config, entry_points=eps[idx]
                )
                max_deg = self.m0 if l == 0 else self.m
                for lane, v, cands in zip(idx, batch[inserting], results):
                    self._link(int(v), cands, l, max_deg)
                    if cands:
                        eps[lane] = cands[0][1]
            l -= 1
        # running-max entry update: the last point whose level
        # strictly beats every earlier level (and the old top) wins
        prefix = np.maximum.accumulate(np.concatenate(([old_top], lvls)))[:-1]
        winners = np.nonzero(lvls > prefix)[0]
        if len(winners):
            self.entry_point = int(batch[winners[-1]])

    def _greedy_batch(
        self,
        adj: np.ndarray,
        queries: np.ndarray,
        eps: np.ndarray,
        data32: np.ndarray,
    ) -> np.ndarray:
        """Vectorized greedy hill-climb for many lanes on one layer.

        Each round gathers every active lane's current adjacency row,
        evaluates the whole panel with one fused
        :meth:`~repro.distances.metrics.Metric.batch_many`, and moves
        lanes to their best neighbor while it improves — the lockstep
        twin of :meth:`_greedy_closest` (same local-minimum guarantee,
        possibly a different climb path).
        """
        cur = eps.astype(np.int64, copy=True)
        if not len(cur):
            return cur
        cur_d = self.metric.batch_many(queries, data32[cur][:, None, :])[:, 0]
        active = np.ones(len(cur), dtype=bool)
        while active.any():
            act_idx = np.nonzero(active)[0]
            rows = adj[cur[act_idx]]
            panel = data32[np.maximum(rows, 0)]
            d = self.metric.batch_many(queries[act_idx], panel)
            d = np.where(rows < 0, np.inf, d)
            j = np.argmin(d, axis=1)
            best = d[np.arange(len(j)), j]
            improved = best < cur_d[act_idx]
            upd = act_idx[improved]
            cur[upd] = rows[np.arange(len(j)), j][improved]
            cur_d[upd] = best[improved]
            active[act_idx[~improved]] = False
        return cur

    def _link(
        self, v: int, cands: List[Tuple[float, int]], layer: int, max_deg: int
    ) -> None:
        """Connect an inserted point on one layer from its batch results."""
        if not cands:
            self._layers[layer][v] = []
            return
        ids = [u for _, u in cands]
        dists = np.array([d for d, _ in cands])
        keep = self._select_indices(dists, self._pairwise(ids), self.m)
        self._layers[layer][v] = [ids[i] for i in keep]
        for i in keep:
            row = self._layers[layer][ids[i]]
            row.append(v)
            if len(row) > max_deg:
                self._reselect_row(ids[i], layer, max_deg)

    def _reselect_row(self, u: int, layer: int, max_deg: int) -> None:
        """Trim an overfull row with the heuristic, vectorized."""
        row = self._layers[layer][u]
        d = self.metric.batch(self.data[u], self.data[row])
        order = np.lexsort((row, d))  # by distance, ties by id
        ids = [row[int(i)] for i in order]
        dists = d[order]
        keep = self._select_indices(dists, self._pairwise(ids), max_deg)
        self._layers[layer][u] = [ids[i] for i in keep]

    def _pairwise(self, ids: List[int]) -> np.ndarray:
        """All-pairs distance matrix over the given vertex ids."""
        vecs = np.ascontiguousarray(self.data[ids])
        c, dim = vecs.shape
        return self.metric.batch_many(
            vecs, np.broadcast_to(vecs[None, :, :], (c, c, dim))
        )

    @staticmethod
    def _select_indices(dists, pair, m) -> List[int]:  # lint: allow(hot-loop)
        """HNSW's diverse-neighbor selection (Algorithm 4 of the paper)
        in index space, over a precomputed pairwise matrix (``dists``
        must be ascending): keep a candidate only if it is closer to the
        point than to every already-kept neighbor.

        The chosen set grows one candidate at a time and every test
        depends on what was already kept, so the ef-bounded loop stays
        sequential (function-level lint waiver).
        """
        chosen: List[int] = []
        for i in range(len(dists)):
            if len(chosen) >= m:
                break
            d = dists[i]
            if all(pair[i, j] >= d for j in chosen):
                chosen.append(i)
        if len(chosen) < m:  # backfill with nearest rejected candidates
            picked = set(chosen)
            for i in range(len(dists)):
                if len(chosen) >= m:
                    break
                if i not in picked:
                    chosen.append(i)
        return chosen

    def _search_layer(
        self,
        query: np.ndarray,
        entry_points: Sequence[int],
        ef: int,
        layer: int,
        counter: Optional[OpCounter] = None,
    ) -> List[Tuple[float, int]]:
        """ef-bounded best-first search on one layer; ascending result."""
        visited = set()
        frontier: List[Tuple[float, int]] = []
        results: List[Tuple[float, int]] = []
        dim = self.data.shape[1]
        for ep in entry_points:
            if ep in visited:
                continue
            visited.add(ep)
            d = self.metric.single(query, self.data[ep])
            if counter is not None:
                counter.distance_calls += 1
                counter.distance_flops += self.metric.flops_per_distance(dim)
                counter.vector_reads += 1
            heapq.heappush(frontier, (d, ep))
            heapq.heappush(results, (-d, ep))
        while frontier:
            dist, v = heapq.heappop(frontier)
            if counter is not None:
                counter.hops += 1
                counter.queue_ops += 1
            if len(results) >= ef and dist > -results[0][0]:
                break
            for u in self._layers[layer].get(v, []):
                if counter is not None:
                    counter.graph_reads += 1
                    counter.hash_ops += 1
                if u in visited:
                    continue
                visited.add(u)
                d = self.metric.single(query, self.data[u])
                if counter is not None:
                    counter.distance_calls += 1
                    counter.distance_flops += self.metric.flops_per_distance(dim)
                    counter.vector_reads += 1
                if len(results) < ef or d < -results[0][0]:
                    heapq.heappush(frontier, (d, u))
                    heapq.heappush(results, (-d, u))
                    if counter is not None:
                        counter.queue_ops += 2
                    if len(results) > ef:
                        heapq.heappop(results)
        return sorted((-nd, v) for nd, v in results)

    # -- queries -----------------------------------------------------------

    def search(
        self, query: np.ndarray, k: int, ef: int = None, counter: OpCounter = None
    ) -> List[Tuple[float, int]]:
        """Top-``k`` nearest neighbors of ``query`` (ascending distance).

        ``counter``, when given, accumulates the work performed — this is
        what the evaluation harness converts into single-thread CPU time.
        """
        if not self.built:
            raise RuntimeError("index not built; call build() first")
        if k <= 0:
            raise ValueError("k must be positive")
        ef = max(ef or k, k)
        ep = self.entry_point
        q = np.asarray(query)
        for l in range(len(self._layers) - 1, 0, -1):  # lint: allow(hot-loop)
            ep = self._greedy_closest(q, ep, l, counter)
        cands = self._search_layer(q, [ep], ef, 0, counter)
        return cands[:k]

    def _greedy_closest(
        self, query: np.ndarray, ep: int, layer: int, counter: Optional[OpCounter]
    ) -> int:
        """Hill-climb to the local minimum on one layer."""
        cur = ep
        dim = self.data.shape[1]
        cur_d = self.metric.single(query, self.data[cur])
        if counter is not None:
            counter.distance_calls += 1
            counter.distance_flops += self.metric.flops_per_distance(dim)
            counter.vector_reads += 1
        improved = True
        while improved:
            improved = False
            for u in self._layers[layer].get(cur, []):
                d = self.metric.single(query, self.data[u])
                if counter is not None:
                    counter.distance_calls += 1
                    counter.distance_flops += self.metric.flops_per_distance(dim)
                    counter.vector_reads += 1
                    counter.graph_reads += 1
                if d < cur_d:
                    cur, cur_d = u, d
                    improved = True
        return cur

    # -- export ---------------------------------------------------------------

    def base_layer_graph(self) -> FixedDegreeGraph:
        """Layer-0 adjacency as a fixed-degree graph (what SONG searches)."""
        if not self.built:
            raise RuntimeError("index not built; call build() first")
        layer0 = self._layers[0]
        return FixedDegreeGraph.from_adjacency(
            [layer0[v] for v in range(len(self.data))],
            degree=self.m0,
            entry_point=self.entry_point,
            validate=False,
        )

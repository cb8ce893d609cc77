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
seeded per-lane from the descent.  Generations are capped at the
inserted prefix (doubling schedule) and at ``_INSERT_BATCH``.

Linking is batched the same way.  One :func:`_select_neighbors` call
runs the heuristic for every new point of the (layer, generation) in
lockstep over candidate columns, scoring only the candidate-to-kept
pairs it reads.  The reverse edges then land in append waves: wave
``t`` gives every row its ``t``-th new neighbor and re-selects, in one
more call of the same column loop, every row that overflowed.  Those
calls read their pairs from a panel: the (layer, generation) keeps
each re-selected row's pair distances, so a row re-selected again in
the same call scores only its new neighbor.  Both steps are exact:
a new point's selection reads only its own search results, and an
append or re-selection touches only its own row, so the graph is, bit
for bit, the one that linking the generation's points one at a time
builds.

Points within a generation search pre-generation snapshots and do not
see each other.  That costs recall at small ``ef`` — layer-0 recall@10 at
queue 64 reads 0.90–0.97 on the sift analogue (n = 500–4000) where
one-point-at-a-time insertion reads 0.93–0.99 — and buys build time:
0.23 / 0.46 / 0.94 / 1.9 s at those sizes (m = 8, ef = 48, one BLAS
thread, 2-core x86 VM, median of three runs alternated with the same
build without the re-selection pair reuse, which read 0.35 / 0.64 /
1.1 / 2.1 s).  On an earlier occasion linking each point by itself
read 0.53 / 1.0 / 2.4 / 4.3 s where batched linking read 0.38 / 0.54 /
1.1 / 2.1 s.  Unlike NSW (:mod:`repro.graphs.nsw`), HNSW rows are
degree-capped as they grow, so a generation's fixed-degree snapshot
carries almost no padding and the lockstep engine is not wasted on it.  Search recall is held to
brute-force ground truth in ``tests/test_graph_quality.py``; the graph
itself is pinned layer by layer in ``tests/test_build_paths.py``.
"""

from __future__ import annotations

# lint: hot-path

import heapq
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.distances import Metric, OpCounter, get_metric
from repro.graphs.storage import PAD, FixedDegreeGraph

__all__ = ["HNSWIndex"]

#: Smallest generation the scheduler will emit.
_MIN_GENERATION = 8

#: Hard cap on one generation's size (bounds the lockstep searcher's
#: per-batch frontier/visited state).
_INSERT_BATCH = 512


def _select_neighbors(
    metric: Metric,
    data: np.ndarray,
    ids: np.ndarray,
    dists: np.ndarray,
    m: int,
    pairs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """HNSW's diverse-neighbor selection (Algorithm 4) for ``R`` rows at once.

    Row ``r`` of the ``(R, C)`` ``ids`` lists one point's candidates in
    ascending ``dists`` order, ``PAD`` after the last.  A candidate is
    kept when no already-kept neighbor is closer to it than the point
    is; when the candidates run out before ``m`` are kept, the nearest
    rejected ones backfill the row.  The result is ``(R, m)``: the kept
    ids in candidate order, then the backfill, ``PAD`` after
    ``min(m, candidates)`` entries.

    Rows run in lockstep over candidate columns.  Step ``c`` compares
    every live row's ``c``-th candidate with the at most ``m`` neighbors
    that row has kept.  Without ``pairs`` it scores those pairs in one
    :meth:`~repro.distances.metrics.Metric.gather_many` call, so a row
    costs at most ``C·m`` pair distances, not the ``C²`` of a full
    pairwise panel; with the ``(R, C, C)`` panel ``pairs[r, i, j]`` (the
    distance between candidates ``i`` and ``j`` of row ``r``) it reads
    them and scores nothing.  Either way a pair's value is the one a
    one-row-at-a-time rule would score: ``gather_many`` values do not
    depend on the call that computes them, and the vector-space
    distances are bitwise symmetric in their two rows.
    """
    rows, width = ids.shape
    valid = ids != PAD
    picked = np.zeros((rows, width), dtype=bool)
    count = np.zeros(rows, dtype=np.int64)
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
            else:
                live &= ~(picked[:, :col] & far[:, col, :col]).any(axis=1)
        picked[:, col] = live
        count += live
    kept = np.full((rows, m), PAD, dtype=np.int64)
    row, col = np.nonzero(picked)
    kept[row, np.cumsum(picked, axis=1)[row, col] - 1] = ids[row, col]
    # backfill: the nearest rejected candidates, in candidate order
    spare = valid & ~picked
    rank = np.cumsum(spare, axis=1) - 1
    row, col = np.nonzero(spare & (rank < (m - count)[:, None]))
    kept[row, count[row] + rank[row, col]] = ids[row, col]
    return kept


class _PairReuse:
    """The pair distances one :meth:`HNSWIndex._link_generation` call scored.

    Every owner the call may re-select gets a slot.  A slot, once filled,
    holds the owner's distances to the members of its current row and
    the members' ``(max_deg, max_deg)`` pair block, both in row order: a
    re-selected row stays full, so each later wave that reaches the owner
    only adds one neighbor to the row the slot describes.  Every value
    was scored on the index's own ``data`` here, never taken from a
    search (which scores float32 copies).
    """

    def __init__(
        self, metric: Metric, data: np.ndarray, owners: np.ndarray, max_deg: int
    ) -> None:
        self.metric, self.data = metric, data
        self.slot = np.full(len(data), -1, dtype=np.int64)
        self.slot[owners] = np.arange(len(owners))
        self.scored = np.zeros(len(owners), dtype=bool)
        self.size = (len(owners), max_deg)
        self.left, self.right = np.triu_indices(max_deg, 1)
        self.owner_d: Optional[np.ndarray] = None
        self.pairs: Optional[np.ndarray] = None

    def lookup(self, owners: np.ndarray, members: np.ndarray) -> np.ndarray:
        """The slots of ``owners`` whose full rows are ``members``.

        Fills the slots not filled yet: each such owner scores its
        ``max_deg`` member distances and ``max_deg (max_deg - 1) / 2``
        member pairs, all in one
        :meth:`~repro.distances.metrics.Metric.gather_many` call.
        """
        slots = self.slot[owners]
        cold = ~self.scored[slots]
        if cold.any():
            owners, members = owners[cold], members[cold]
            left, right = members[:, self.left], members[:, self.right]
            scores = self.metric.gather_many(
                self.data,
                np.concatenate([np.repeat(owners, self.size[1]), left.ravel()]),
                self.data,
                np.concatenate([members.ravel(), right.ravel()]),
            )
            owner_d, between = np.split(scores, [members.size])
            pairs = np.zeros(members.shape + members.shape[1:], dtype=scores.dtype)
            pairs[:, self.left, self.right] = pairs[:, self.right, self.left] = (
                between.reshape(len(owners), -1)
            )
            self.store(slots[cold], owner_d.reshape(members.shape), pairs)
        return slots

    def store(self, slots: np.ndarray, owner_d: np.ndarray, pairs: np.ndarray) -> None:
        """Describe the owners' new rows: member distances and pair blocks."""
        if self.owner_d is None:
            self.owner_d = np.empty(self.size, dtype=owner_d.dtype)
            self.pairs = np.empty(self.size + self.size[1:], dtype=pairs.dtype)
        self.owner_d[slots] = owner_d
        self.pairs[slots] = pairs
        self.scored[slots] = True


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
        # layers[l] is an (n, cap) id array, PAD-tailed; a vertex whose
        # level is below l keeps an empty row
        self._layers: List[np.ndarray] = []
        self.entry_point: Optional[int] = None
        self._levels: List[int] = []
        self.built = False

    # -- construction ----------------------------------------------------

    def build(self) -> "HNSWIndex":
        """Insert every data point, one generation batch at a time.

        Raises ``ValueError`` naming the first row that holds a NaN or an
        infinity once cast to float32.
        """
        from repro.core.batched import BatchedSongSearcher
        from repro.core.song import require_finite

        n = len(self.data)
        data32 = np.ascontiguousarray(self.data, dtype=np.float32)
        # before the searcher's own check, so the error names this index
        require_finite(data32, "HNSWIndex data")
        # one draw per point, in insertion order
        levels = [self._random_level() for _ in range(n)]
        self._levels = levels
        if n:
            self._layers = [
                np.full((n, self.m0 if l == 0 else self.m), PAD, dtype=np.int64)
                for l in range(max(levels) + 1)
            ]
            # the first point founds every layer up to its level
            self.entry_point = 0
            # one searcher for the whole build, pointed at each (layer,
            # generation)'s snapshot in turn: the O(n d) validation of
            # the dataset (and cosine's norms) happens once, not per search
            searcher = BatchedSongSearcher(
                FixedDegreeGraph.from_neighbor_array(
                    self._layers[0][:, :1], entry_point=0, validate=False
                ),
                data32,
            )
            lvl_arr = np.asarray(levels, dtype=np.int64)
            pos = 1
            while pos < n:
                size = min(n - pos, max(_MIN_GENERATION, pos), _INSERT_BATCH)
                batch = np.arange(pos, pos + size, dtype=np.int64)
                self._insert_generation(batch, lvl_arr[batch], searcher)
                pos += size
        self.built = True
        return self

    def _random_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._mult)

    def _insert_generation(self, batch: np.ndarray, lvls: np.ndarray, searcher) -> None:
        """Insert one generation, batched per layer.

        Every lane descends the upper hierarchy in a lockstep vectorized
        hill-climb (:meth:`_greedy_batch`), then — per layer, from its
        insertion level down — joins that layer's lockstep
        :class:`~repro.core.batched.BatchedSongSearcher` sweep, and the
        layer links every lane from its results in one
        :meth:`_link_generation`.  Lanes within a generation search
        pre-generation snapshots, so they do not see each other; the
        entry point updates after the generation with the running-max
        rule.  ``searcher`` is the build's one lockstep searcher over the
        float32 data.
        """
        from repro.core.config import SearchConfig

        data32 = searcher.data
        old_top = self._levels[self.entry_point]
        eps = np.full(len(batch), self.entry_point, dtype=np.int64)
        queries = data32[batch]
        config = SearchConfig(
            k=self.ef_construction,
            queue_size=self.ef_construction,
            metric=self.metric.name,
        )
        # layers above the old top get no edges from this generation:
        # no search runs there yet
        l = old_top
        while l >= 0:
            inserting = lvls >= l
            adj = self._layers[l]
            # as wide as the widest row, the degree the snapshot always had
            width = max(1, int((adj != PAD).sum(axis=1).max()))
            snapshot = FixedDegreeGraph.from_neighbor_array(
                adj[:, :width], entry_point=self.entry_point, validate=False
            )
            if l > 0 and not inserting.all():
                idx = np.nonzero(~inserting)[0]
                eps[idx] = self._greedy_batch(
                    snapshot.adjacency_array, queries[idx], eps[idx], data32
                )
            if inserting.any():
                idx = np.nonzero(inserting)[0]
                searcher.graph = snapshot
                lists = searcher.search_batch(queries[idx], config, entry_points=eps[idx])
                ids, dists = lists.ids, lists.dists
                self._link_generation(
                    batch[inserting], ids, dists, l, self.m0 if l == 0 else self.m
                )
                found = ids[:, 0] != PAD
                eps[idx[found]] = ids[found, 0]
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

    def _link_generation(
        self,
        vs: np.ndarray,
        ids: np.ndarray,
        dists: np.ndarray,
        layer: int,
        max_deg: int,
    ) -> None:
        """Link a generation's new points ``vs`` on one layer from their results.

        ``ids`` / ``dists`` are the points' ascending search results
        (:class:`~repro.core.batched.LaneResults` arrays).
        Every candidate is an old vertex, so the forward selections are
        independent and run as one :func:`_select_neighbors` call.  The
        reverse edges are then appended in the order one-by-one insertion
        would make them: a stable sort by row ranks each row's appends,
        and wave ``t`` appends every rank-``t`` edge and re-selects every
        row it pushed past ``max_deg``.  A row that overflows once
        overflows at every later wave that reaches it, so the call keeps
        what each re-selection scored (:class:`_PairReuse`) and scores
        every pair at most once.
        """
        adj = self._layers[layer]
        forward = _select_neighbors(self.metric, self.data, ids, dists, self.m)
        adj[vs, : self.m] = forward
        owners = forward.ravel()
        real = owners != PAD
        sources = np.repeat(vs, self.m)[real]
        owners = owners[real]
        order = np.argsort(owners, kind="stable")
        owners, sources = owners[order], sources[order]
        rank = np.arange(len(owners)) - np.searchsorted(owners, owners)
        waves = int(rank.max()) + 1 if len(rank) else 0
        # the rows whose appends outgrow them: the only ones re-selected
        grows, appends = np.unique(owners, return_counts=True)
        reuse = _PairReuse(
            self.metric,
            self.data,
            grows[(adj[grows] != PAD).sum(axis=1) + appends > max_deg],
            max_deg,
        )
        # lint: allow(hot-loop) — iterates append waves (the most appends one row takes)
        for wave in range(waves):
            now = rank == wave
            rows, new = owners[now], sources[now]
            deg = (adj[rows] != PAD).sum(axis=1)
            room = deg < max_deg
            adj[rows[room], deg[room]] = new[room]
            full = rows[~room]
            if len(full):
                grown = np.concatenate([adj[full], new[~room, None]], axis=1)
                adj[full] = self._reselect(full, grown, max_deg, reuse)

    def _reselect(
        self, owners: np.ndarray, rows: np.ndarray, max_deg: int, reuse: _PairReuse
    ) -> np.ndarray:
        """Trim overfull rows (one per owner) with the heuristic, all at once.

        ``rows`` are ``(R, max_deg + 1)``: each owner's full row, then the
        neighbor that overflowed it.  ``reuse`` holds the owner and pair
        distances of the full rows, so this call scores only the new
        neighbor against the owner and the members, in one
        :meth:`~repro.distances.metrics.Metric.gather_many` call, and the
        selection reads the assembled ``(R, W, W)`` panel.
        """
        count, width = rows.shape
        members, new = rows[:, :-1], rows[:, -1]
        slots = reuse.lookup(owners, members)
        fresh = self.metric.gather_many(
            self.data,
            np.concatenate([owners, np.repeat(new, max_deg)]),
            self.data,
            np.concatenate([new, members.ravel()]),
        )
        d = np.empty(rows.shape, dtype=fresh.dtype)
        d[:, :-1] = reuse.owner_d[slots]
        d[:, -1] = fresh[:count]
        panel = np.zeros((count, width, width), dtype=fresh.dtype)
        panel[:, :-1, :-1] = reuse.pairs[slots]
        panel[:, -1, :-1] = panel[:, :-1, -1] = fresh[count:].reshape(members.shape)
        order = np.lexsort((rows, d))  # per row: by distance, ties by id
        at = np.arange(count)[:, None]
        kept = _select_neighbors(
            self.metric,
            self.data,
            rows[at, order],
            d[at, order],
            max_deg,
            panel[at[:, :, None], order[:, :, None], order[:, None, :]],
        )
        # the kept row's members, as positions in ``rows``: its ids are distinct
        pos = (rows[:, None, :] == kept[:, :, None]).argmax(axis=2)
        reuse.store(
            slots, d[at, pos], panel[at[:, :, None], pos[:, :, None], pos[:, None, :]]
        )
        return kept

    def _neighbors(self, layer: int, v: int) -> List[int]:
        """Vertex ``v``'s row on one layer (empty above its level)."""
        row = self._layers[layer][v].tolist()
        return row[: row.index(PAD)] if PAD in row else row

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
            for u in self._neighbors(layer, v):
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
            for u in self._neighbors(layer, cur):
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
        return FixedDegreeGraph.from_neighbor_array(
            self._layers[0], entry_point=self.entry_point, validate=False
        )

"""Navigable small-world graph construction (Malkov et al., 2014).

This is the index SONG loads in the paper's experiments.  Points are
inserted one at a time: each new point searches the graph built so far for
its ``m`` nearest neighbors and connects to them bidirectionally.  Early
insertions create the long-range "highway" links that make the graph
navigable.  The final graph is exported as a fixed-degree adjacency array.

Two insertion engines are available.  ``build_engine="serial"`` is the
reference one-point-at-a-time loop.  ``build_engine="batched"`` (default)
inserts points in *generation batches*: each generation snapshots the
graph built so far, runs every pending point's entry search through the
lockstep :class:`~repro.core.batched.BatchedSongSearcher` in one shot, and
then applies the bidirectional links.  Points inside one generation do not
see each other — with the generation size capped at the inserted prefix
(doubling schedule) and by ``insert_batch``, the resulting graph is not
identical to the serial one but is recall-equivalent (tested; see
``tests/test_graph_quality.py``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.distances import get_metric
from repro.graphs._search import greedy_search
from repro.graphs.storage import FixedDegreeGraph

#: Smallest generation the batched scheduler will emit.
_MIN_GENERATION = 8


class NSWBuilder:
    """Incremental NSW construction.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    m:
        Connections created per inserted point.
    ef_construction:
        Candidate-list size during insertion searches.
    max_degree:
        Per-vertex degree cap in the exported graph (default ``2 * m``);
        overfull lists are pruned to the closest neighbors.
    metric:
        Distance measure name.
    seed:
        Insertion order shuffle seed (``None`` keeps dataset order).
    build_engine:
        ``"batched"`` (default) inserts generation batches through the
        lockstep search engine; ``"serial"`` inserts one point at a
        time.
    insert_batch:
        Batched engine only: hard cap on one generation's size.
    """

    def __init__(
        self,
        data: np.ndarray,
        m: int = 8,
        ef_construction: int = 64,
        max_degree: int = None,
        metric: str = "l2",
        seed: int = None,
        build_engine: str = "batched",
        insert_batch: int = 512,
    ) -> None:
        from repro.graphs.nn_descent import BUILD_ENGINES

        if m <= 0:
            raise ValueError("m must be positive")
        if ef_construction < m:
            raise ValueError("ef_construction must be at least m")
        if build_engine not in BUILD_ENGINES:
            raise ValueError(
                f"unknown build_engine {build_engine!r}; "
                f"expected one of {BUILD_ENGINES}"
            )
        if insert_batch <= 0:
            raise ValueError("insert_batch must be positive")
        self.data = np.asarray(data)
        self.m = m
        self.ef_construction = ef_construction
        self.max_degree = max_degree if max_degree is not None else 2 * m
        self.metric = get_metric(metric)
        self.seed = seed
        self.build_engine = build_engine
        self.insert_batch = insert_batch
        self._adj: List[List[int]] = []
        self._order: List[int] = []

    def build(self) -> FixedDegreeGraph:
        """Insert every point and export the fixed-degree graph."""
        n = len(self.data)
        if n == 0:
            raise ValueError("cannot build a graph over an empty dataset")
        order = list(range(n))
        if self.seed is not None:
            rng = np.random.default_rng(self.seed)
            rng.shuffle(order)
        self._adj = [[] for _ in range(n)]
        self._order = order
        if self.build_engine == "batched":
            self._insert_batched(order)
        else:
            for rank, v in enumerate(order):
                self._insert(v, order[0], inserted=rank)
        self._prune()
        entry = order[0]
        self._repair_connectivity(entry)
        graph = FixedDegreeGraph(n, self.max_degree, entry_point=entry)
        for v in range(n):
            graph.set_neighbors(v, self._adj[v])
        return graph

    # -- internals -----------------------------------------------------------

    def _insert(self, v: int, entry: int, inserted: int) -> None:
        if inserted == 0:
            return  # first point has nothing to connect to
        found = greedy_search(
            self.data,
            lambda u: self._adj[u],
            self.data[v],
            ef=self.ef_construction,
            entry_points=[entry],
            metric=self.metric,
        )
        for _, u in found[: self.m]:
            self._adj[v].append(u)
            self._adj[u].append(v)

    def _insert_batched(self, order: List[int]) -> None:
        """Generation-batch insertion through the lockstep search engine."""
        from repro.core.batched import BatchedSongSearcher
        from repro.core.config import SearchConfig

        n = len(order)
        data32 = np.ascontiguousarray(np.asarray(self.data), dtype=np.float32)
        entry = order[0]
        pos = 1  # order[0] is in the graph with no edges yet
        while pos < n:
            inserted = pos
            size = min(n - pos, max(_MIN_GENERATION, inserted), self.insert_batch)
            batch = order[pos : pos + size]
            ef = self.ef_construction
            snapshot = FixedDegreeGraph.from_adjacency(
                self._adj, entry_point=entry, validate=False
            )
            searcher = BatchedSongSearcher(snapshot, data32)
            config = SearchConfig(k=ef, queue_size=ef, metric=self.metric.name)
            results = searcher.search_batch(data32[batch], config)
            for v, found in zip(batch, results):
                for _, u in found[: self.m]:
                    self._adj[v].append(u)
                    self._adj[u].append(v)
            pos += size

    def _prune(self) -> None:
        """Cut overfull adjacency lists down to the closest neighbors."""
        for v in range(len(self.data)):
            row = list(dict.fromkeys(self._adj[v]))  # dedupe, keep order
            if len(row) > self.max_degree:
                dists = self.metric.batch(self.data[v], self.data[row])
                keep = np.argsort(dists, kind="stable")[: self.max_degree]
                row = [row[i] for i in sorted(keep.tolist())]
            self._adj[v] = row

    def _repair_connectivity(self, entry: int) -> None:
        """Re-attach vertices the pruning orphaned (directed reachability).

        Pruning keeps only each vertex's closest out-edges, which can
        leave a vertex with no *in*-path from the entry point.  Link each
        orphan from its nearest reachable vertex, replacing that vertex's
        farthest edge when its row is full.
        """
        from collections import deque

        n = len(self.data)
        while True:
            seen = {entry}
            queue = deque([entry])
            while queue:
                v = queue.popleft()
                for u in self._adj[v]:
                    if u not in seen:
                        seen.add(u)
                        queue.append(u)
            missing = [v for v in range(n) if v not in seen]
            if not missing:
                return
            v = missing[0]
            reachable = sorted(seen)
            dists = self.metric.batch(self.data[v], self.data[reachable])
            order = np.argsort(dists, kind="stable")
            attached = False
            for idx in order:
                u = reachable[int(idx)]
                if len(self._adj[u]) < self.max_degree:
                    self._adj[u].append(v)
                    attached = True
                    break
            if not attached:
                u = reachable[int(order[0])]
                row = self._adj[u]
                row_d = self.metric.batch(self.data[u], self.data[row])
                row[int(np.argmax(row_d))] = v


def build_nsw(
    data: np.ndarray,
    m: int = 8,
    ef_construction: int = 64,
    max_degree: int = None,
    metric: str = "l2",
    seed: int = None,
    build_engine: str = "batched",
    insert_batch: int = 512,
) -> FixedDegreeGraph:
    """One-call NSW construction (see :class:`NSWBuilder`)."""
    return NSWBuilder(
        data,
        m=m,
        ef_construction=ef_construction,
        max_degree=max_degree,
        metric=metric,
        seed=seed,
        build_engine=build_engine,
        insert_batch=insert_batch,
    ).build()

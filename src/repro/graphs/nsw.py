"""Navigable small-world graph construction (Malkov et al., 2014).

This is the index SONG loads in the paper's experiments.  Points are
inserted one at a time: each new point searches the graph built so far for
its ``m`` nearest neighbors and connects to them bidirectionally.  Early
insertions create the long-range "highway" links that make the graph
navigable.  The final graph is exported as a fixed-degree adjacency array.

Insertion is sequential on purpose: generation batching (snapshot the
graph, run every pending point's entry search through the lockstep
:class:`~repro.core.batched.BatchedSongSearcher`, link afterwards) is
3–22× slower on this family.  NSW adjacency is unbounded until the final
prune, so each snapshot's fixed-degree rows are as wide as the biggest
hub — about 350 slots at n=2000, where the mean filled degree is 15.9 —
and the lockstep engine gathers and scores ~95 % PAD slots.  Measured on
the sift analogue (d=128, m=8, ef_construction=48, one BLAS thread,
median of three, wall seconds; the 72 is a single run):

    ========  ==========  ================
    n         sequential  generation batch
    ========  ==========  ================
    500       0.24        0.83
    1000      0.58        3.6
    2000      1.3         18.5
    4000      3.2         72
    ========  ==========  ================

Generation batching needs the ragged row compaction of ROADMAP item 1(a)
before it can win here; HNSW, whose rows are degree-capped as they grow,
does batch (see :mod:`repro.graphs.hnsw`).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.distances import get_metric
from repro.graphs._search import greedy_search
from repro.graphs.storage import FixedDegreeGraph


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
    """

    def __init__(
        self,
        data: np.ndarray,
        m: int = 8,
        ef_construction: int = 64,
        max_degree: int = None,
        metric: str = "l2",
        seed: int = None,
    ) -> None:
        if m <= 0:
            raise ValueError("m must be positive")
        if ef_construction < m:
            raise ValueError("ef_construction must be at least m")
        self.data = np.asarray(data)
        self.m = m
        self.ef_construction = ef_construction
        self.max_degree = max_degree if max_degree is not None else 2 * m
        self.metric = get_metric(metric)
        self.seed = seed
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
) -> FixedDegreeGraph:
    """One-call NSW construction (see :class:`NSWBuilder`)."""
    return NSWBuilder(
        data,
        m=m,
        ef_construction=ef_construction,
        max_degree=max_degree,
        metric=metric,
        seed=seed,
    ).build()

"""KD-tree ANN baseline (FLANN-family).

The paper excludes tree-based methods citing prior studies that show
them inferior to graph methods on high-dimensional data; this
implementation exists to *reproduce that exclusion* (see
``benchmarks/bench_excluded_baselines.py``).  It is a classic KD-tree
with median splits on the highest-variance dimension and best-first
(priority) backtracking search with a node budget.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass
class _Node:
    """One KD-tree node: a splitting hyperplane or a leaf bucket."""

    indices: np.ndarray
    split_dim: int = -1
    split_value: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class KDTreeIndex:
    """KD-tree with best-first backtracking search.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    leaf_size:
        Bucket size at which splitting stops.
    """

    def __init__(self, data: np.ndarray, leaf_size: int = 16) -> None:
        if leaf_size <= 0:
            raise ValueError("leaf_size must be positive")
        self.data = np.asarray(data, dtype=np.float64)
        self.leaf_size = leaf_size
        self.root = self._build(np.arange(len(self.data)))

    def _build(self, indices: np.ndarray) -> _Node:
        if len(indices) <= self.leaf_size:
            return _Node(indices=indices)
        subset = self.data[indices]
        split_dim = int(np.argmax(subset.var(axis=0)))
        values = subset[:, split_dim]
        split_value = float(np.median(values))
        left_mask = values < split_value
        # median may collapse one side on duplicated values; fall back to
        # an even split by rank.
        if not left_mask.any() or left_mask.all():
            order = np.argsort(values, kind="stable")
            half = len(indices) // 2
            left_ids = indices[order[:half]]
            right_ids = indices[order[half:]]
            split_value = float(values[order[half]])
        else:
            left_ids = indices[left_mask]
            right_ids = indices[~left_mask]
        return _Node(
            indices=indices,
            split_dim=split_dim,
            split_value=split_value,
            left=self._build(left_ids),
            right=self._build(right_ids),
        )

    def search(
        self, query: np.ndarray, k: int, max_leaves: int = 32
    ) -> List[Tuple[float, int]]:
        """Top-``k`` by best-first leaf visits (``max_leaves`` budget).

        ``max_leaves`` is the recall/throughput dial: with enough budget
        the search is exact; small budgets approximate.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        query = np.asarray(query, dtype=np.float64)
        frontier: List[Tuple[float, int, _Node]] = [(0.0, 0, self.root)]
        best: List[Tuple[float, int]] = []  # max-heap via negation
        counter = 1
        leaves = 0
        self.last_scanned = 0
        while frontier and leaves < max_leaves:
            bound, _, node = heapq.heappop(frontier)
            if len(best) == k and bound > -best[0][0]:
                break
            while not node.is_leaf:
                diff = query[node.split_dim] - node.split_value
                near, far = (
                    (node.left, node.right) if diff < 0 else (node.right, node.left)
                )
                far_bound = max(bound, diff * diff)
                heapq.heappush(frontier, (far_bound, counter, far))
                counter += 1
                node = near
            leaves += 1
            pts = self.data[node.indices]
            dists = ((pts - query) ** 2).sum(axis=1)
            self.last_scanned += len(node.indices)
            for d, idx in zip(dists, node.indices):
                if len(best) < k:
                    heapq.heappush(best, (-d, int(idx)))
                elif d < -best[0][0]:
                    heapq.heapreplace(best, (-d, int(idx)))
        return sorted((-nd, v) for nd, v in best)

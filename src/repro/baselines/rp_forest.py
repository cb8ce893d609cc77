"""Random-projection forest (Annoy-family) ANN baseline.

Annoy builds a forest of trees whose internal nodes split on random
hyperplanes through two sampled points; search descends every tree,
collecting leaf candidates, and ranks the union exactly.  Included, like
the KD-tree, to reproduce the paper's exclusion of tree methods.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass
class _RPNode:
    indices: np.ndarray
    normal: Optional[np.ndarray] = None
    offset: float = 0.0
    left: Optional["_RPNode"] = None
    right: Optional["_RPNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


class RPForestIndex:
    """Forest of random-hyperplane trees.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    num_trees:
        More trees → better recall, more memory and search work.
    leaf_size:
        Bucket size.
    seed:
        Forest RNG seed.
    """

    def __init__(
        self,
        data: np.ndarray,
        num_trees: int = 8,
        leaf_size: int = 16,
        seed: int = 0,
    ) -> None:
        if num_trees <= 0:
            raise ValueError("num_trees must be positive")
        if leaf_size <= 0:
            raise ValueError("leaf_size must be positive")
        self.data = np.asarray(data, dtype=np.float64)
        self.leaf_size = leaf_size
        self._rng = np.random.default_rng(seed)
        self.trees = [
            self._build(np.arange(len(self.data))) for _ in range(num_trees)
        ]

    def _build(self, indices: np.ndarray, depth: int = 0) -> _RPNode:
        if len(indices) <= self.leaf_size or depth > 48:
            return _RPNode(indices=indices)
        picks = self._rng.choice(indices, size=2, replace=False)
        a, b = self.data[picks[0]], self.data[picks[1]]
        normal = a - b
        norm = np.linalg.norm(normal)
        if norm == 0:
            return _RPNode(indices=indices)
        normal = normal / norm
        offset = float(normal @ (a + b) / 2.0)
        side = self.data[indices] @ normal < offset
        if not side.any() or side.all():
            # degenerate split: shuffle into halves
            shuffled = self._rng.permutation(indices)
            half = len(indices) // 2
            left_ids, right_ids = shuffled[:half], shuffled[half:]
        else:
            left_ids, right_ids = indices[side], indices[~side]
        return _RPNode(
            indices=indices,
            normal=normal,
            offset=offset,
            left=self._build(left_ids, depth + 1),
            right=self._build(right_ids, depth + 1),
        )

    def search(
        self, query: np.ndarray, k: int, search_budget: int = 256
    ) -> List[Tuple[float, int]]:
        """Top-``k`` over the union of tree leaves within a budget.

        ``search_budget`` is the total number of candidate points to
        gather across all trees (Annoy's ``search_k``).
        """
        if k <= 0:
            raise ValueError("k must be positive")
        query = np.asarray(query, dtype=np.float64)
        # best-first across all trees by margin to the splitting plane
        frontier: List[Tuple[float, int, _RPNode]] = []
        counter = 0
        for tree in self.trees:
            heapq.heappush(frontier, (0.0, counter, tree))
            counter += 1
        candidates: List[int] = []
        seen = set()
        while frontier and len(candidates) < search_budget:
            margin, _, node = heapq.heappop(frontier)
            while not node.is_leaf:
                proj = float(node.normal @ query) - node.offset
                near, far = (
                    (node.left, node.right) if proj < 0 else (node.right, node.left)
                )
                heapq.heappush(
                    frontier, (max(margin, abs(proj)), counter, far)
                )
                counter += 1
                node = near
            for idx in node.indices:
                idx = int(idx)
                if idx not in seen:
                    seen.add(idx)
                    candidates.append(idx)
        self.last_scanned = len(candidates)
        if not candidates:
            return []
        pts = self.data[candidates]
        dists = ((pts - query) ** 2).sum(axis=1)
        take = min(k, len(candidates))
        top = np.argpartition(dists, take - 1)[:take]
        order = np.argsort(dists[top], kind="stable")
        return [(float(dists[top[i]]), candidates[top[i]]) for i in order]

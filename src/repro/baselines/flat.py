"""Exact brute-force search: ground truth and sanity baseline."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.distances import get_metric


class FlatIndex:
    """Scan-everything exact index."""

    def __init__(self, data: np.ndarray, metric: str = "l2") -> None:
        self.data = np.asarray(data)
        self.metric = get_metric(metric)

    def search(self, query: np.ndarray, k: int) -> List[Tuple[float, int]]:
        """Exact top-``k`` (ascending distance, ties broken by id)."""
        if k <= 0:
            raise ValueError("k must be positive")
        k = min(k, len(self.data))
        d = self.metric.batch(np.asarray(query), self.data)
        idx = np.argpartition(d, k - 1)[:k]
        order = np.lexsort((idx, d[idx]))
        return [(float(d[idx[i]]), int(idx[i])) for i in order]

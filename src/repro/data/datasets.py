"""Dataset container."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Dataset:
    """A base set, a query set, and cached ground truth.

    Attributes
    ----------
    name:
        Dataset identifier (e.g. ``"sift"``).
    data:
        ``(n, d)`` float32 base vectors.
    queries:
        ``(q, d)`` float32 query vectors.
    metric:
        The distance measure the benchmark uses.
    """

    name: str
    data: np.ndarray
    queries: np.ndarray
    metric: str = "l2"
    _gt_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.queries.ndim != 2:
            raise ValueError("data and queries must be 2-d arrays")
        if self.data.shape[1] != self.queries.shape[1]:
            raise ValueError("data/queries dimensionality mismatch")

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    @property
    def num_data(self) -> int:
        return len(self.data)

    @property
    def num_queries(self) -> int:
        return len(self.queries)

    def size_bytes(self) -> int:
        return int(self.data.nbytes)

    def ground_truth(self, k: int) -> np.ndarray:
        """Exact top-``k`` ids per query, cached per ``k``."""
        from repro.data.ground_truth import ground_truth

        if k not in self._gt_cache:
            self._gt_cache[k] = ground_truth(
                self.data, self.queries, k, metric=self.metric
            )
        return self._gt_cache[k]

"""Multi-probe LSH ANN baseline (FALCONN-family).

Hash tables over random-hyperplane sign bits; a query probes its own
bucket plus the buckets at small Hamming perturbations of its code
(multi-probe), ranks the union exactly.  Included to reproduce the
paper's exclusion of hashing-based competitors.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Tuple

import numpy as np


class LSHIndex:
    """Sign-random-projection multi-probe LSH.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    num_tables:
        Independent hash tables.
    num_bits:
        Hyperplanes (code bits) per table; buckets = 2^num_bits.
    seed:
        RNG seed for the hyperplanes.
    """

    def __init__(
        self,
        data: np.ndarray,
        num_tables: int = 8,
        num_bits: int = 12,
        seed: int = 0,
    ) -> None:
        if num_tables <= 0:
            raise ValueError("num_tables must be positive")
        if not 1 <= num_bits <= 24:
            raise ValueError("num_bits must be in [1, 24]")
        self.data = np.asarray(data, dtype=np.float64)
        self.num_tables = num_tables
        self.num_bits = num_bits
        rng = np.random.default_rng(seed)
        d = self.data.shape[1]
        self._planes = rng.standard_normal((num_tables, d, num_bits))
        self.tables: List[Dict[int, List[int]]] = []
        for t in range(num_tables):
            codes = self._codes(self.data, t)
            table: Dict[int, List[int]] = {}
            for idx, code in enumerate(codes):
                table.setdefault(int(code), []).append(idx)
            self.tables.append(table)

    def _codes(self, points: np.ndarray, table: int) -> np.ndarray:
        signs = points @ self._planes[table] >= 0  # (n, bits)
        weights = 1 << np.arange(self.num_bits)
        return signs @ weights

    @staticmethod
    def _perturbations(code: int, num_bits: int, max_flips: int):
        yield code
        for flips in range(1, max_flips + 1):
            for bits in combinations(range(num_bits), flips):
                mask = 0
                for b in bits:
                    mask |= 1 << b
                yield code ^ mask

    def search(
        self, query: np.ndarray, k: int, max_flips: int = 1
    ) -> List[Tuple[float, int]]:
        """Top-``k`` over the union of probed buckets.

        ``max_flips`` is the multi-probe radius (0 = exact bucket only);
        it is the recall/throughput dial.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if max_flips < 0:
            raise ValueError("max_flips must be non-negative")
        query = np.asarray(query, dtype=np.float64)
        candidates: List[int] = []
        seen = set()
        for t in range(self.num_tables):
            code = int(self._codes(query[None, :], t)[0])
            for probe in self._perturbations(code, self.num_bits, max_flips):
                for idx in self.tables[t].get(probe, ()):
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

"""Product quantization codec (Jégou et al., 2011).

The vector space is split into ``m`` contiguous sub-spaces; each sub-space
gets its own ``ksub``-centroid codebook, so a ``d``-dimensional float
vector compresses to ``m`` bytes (with ``ksub ≤ 256``).  Search uses
asymmetric distance computation (ADC): per query, a ``(m, ksub)`` table of
sub-distances is built once, after which each code's distance is ``m``
table lookups and adds.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.kmeans import kmeans


class ProductQuantizer:
    """PQ codec with ADC support.

    Parameters
    ----------
    dim:
        Vector dimensionality (must divide evenly by ``m``).
    m:
        Number of sub-quantizers (bytes per code).
    ksub:
        Centroids per sub-space (≤ 256 keeps one byte per sub-code).
    seed:
        Codebook-training RNG seed.
    """

    def __init__(self, dim: int, m: int = 8, ksub: int = 256, seed: int = 0) -> None:
        if dim % m != 0:
            raise ValueError(f"dim={dim} must be divisible by m={m}")
        if not 1 <= ksub <= 256:
            raise ValueError("ksub must be in [1, 256]")
        self.dim = dim
        self.m = m
        self.ksub = ksub
        self.dsub = dim // m
        self.seed = seed
        self.codebooks: np.ndarray = None  # (m, ksub, dsub)
        self.trained = False

    def train(self, data: np.ndarray) -> "ProductQuantizer":
        """Fit one codebook per sub-space with k-means."""
        data = np.asarray(data, dtype=np.float64)
        if data.shape[1] != self.dim:
            raise ValueError("training data dimensionality mismatch")
        ksub = min(self.ksub, len(data))
        books = np.zeros((self.m, self.ksub, self.dsub))
        for j in range(self.m):
            sub = data[:, j * self.dsub : (j + 1) * self.dsub]
            centroids, _ = kmeans(sub, ksub, seed=self.seed + j)
            books[j, :ksub] = centroids
            if ksub < self.ksub:
                books[j, ksub:] = centroids[0]
        self.codebooks = books
        self.trained = True
        return self

    def _require_trained(self) -> None:
        if not self.trained:
            raise RuntimeError("quantizer not trained; call train() first")

    def encode(self, data: np.ndarray) -> np.ndarray:
        """Compress ``(n, dim)`` vectors to ``(n, m)`` uint8 codes."""
        self._require_trained()
        data = np.asarray(data, dtype=np.float64)
        n = len(data)
        codes = np.empty((n, self.m), dtype=np.uint8)
        for j in range(self.m):
            sub = data[:, j * self.dsub : (j + 1) * self.dsub]
            book = self.codebooks[j]
            d = (
                np.einsum("ij,ij->i", sub, sub)[:, None]
                - 2.0 * sub @ book.T
                + np.einsum("ij,ij->i", book, book)[None, :]
            )
            codes[:, j] = np.argmin(d, axis=1).astype(np.uint8)
        return codes

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Reconstruct approximate vectors from codes."""
        self._require_trained()
        n = len(codes)
        out = np.empty((n, self.dim))
        for j in range(self.m):
            out[:, j * self.dsub : (j + 1) * self.dsub] = self.codebooks[j][
                codes[:, j]
            ]
        return out

    def adc_table(self, query: np.ndarray) -> np.ndarray:
        """Per-query ``(m, ksub)`` table of squared sub-distances."""
        self._require_trained()
        query = np.asarray(query, dtype=np.float64)
        table = np.empty((self.m, self.ksub))
        for j in range(self.m):
            sub = query[j * self.dsub : (j + 1) * self.dsub]
            diff = self.codebooks[j] - sub
            table[j] = np.einsum("ij,ij->i", diff, diff)
        return table

    def adc_distances(self, table: np.ndarray, codes: np.ndarray) -> np.ndarray:
        """Approximate squared distances of codes given an ADC table."""
        n = len(codes)
        out = np.zeros(n)
        for j in range(self.m):
            out += table[j, codes[:, j]]
        return out

    def memory_bytes(self) -> int:
        """Codebook storage (float32 on device)."""
        return int(self.m * self.ksub * self.dsub * 4)

"""Device-resident compressed stores for the out-of-core tier.

Both stores expose the same contract: a packed code matrix whose bytes
are what the capacity ledger charges for, the array and metric the
lockstep :class:`~repro.core.batched.BatchedSongSearcher` traverses
(``traversal_data`` / ``traversal_metric`` — the engine itself knows
nothing of codecs), and a cost profile (flops + words per distance)
that prices traversal at the *compressed* rates on the warp meter.

- **bits**: the packed signatures themselves, under ``"hamming"`` —
  XOR + popcount over ``num_bits / 32`` uint32 words, the paper's
  Sec. VII search space.
- **pq**: decoded (reconstructed) float32 rows under ``"l2"``.  ADC's
  distance of query ``q`` to code ``c`` is
  ``Σ_j |q_j − codebook_j[c_j]|²`` which *is* the squared L2 from ``q``
  to the decoded vector — the classic ADC identity — so L2 traversal
  over decoded rows computes ADC exactly.  The decoded array is a
  host-side stand-in for codes that live packed on the device;
  per-query ADC lookup tables would traverse the codes themselves.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.pq import ProductQuantizer
from repro.hashing.random_projection import SignRandomProjection
from repro.tiered.config import TieredConfig

__all__ = ["BitCodeStore", "PQCodeStore", "make_store"]


class BitCodeStore:
    """Sign-projection signatures resident on device; Hamming traversal."""

    codec = "bits"
    traversal_metric = "hamming"

    def __init__(self, data: np.ndarray, tier: TieredConfig) -> None:
        data = np.atleast_2d(np.asarray(data, dtype=np.float32))
        self.dim = data.shape[1]
        self.projector = SignRandomProjection(
            self.dim,
            num_bits=tier.num_bits,
            distribution=tier.distribution,
            seed=tier.seed,
        )
        #: Packed ``(n, w)`` uint32 signatures — the device-resident form,
        #: and what the engine traverses.
        self.codes = self.traversal_data = self.projector.transform(data)

    @property
    def num_words(self) -> int:
        return self.projector.num_words

    @property
    def cost_dim(self) -> int:
        """Words of 4 bytes the warp meter charges per point."""
        return self.num_words

    @property
    def query_device_bytes(self) -> int:
        """Bytes uploaded per query: one packed signature."""
        return self.num_words * 4

    def flops_per_distance(self, _dim: int = 0) -> int:
        """XOR + popcount + accumulate per signature word."""
        return 3 * self.num_words

    def encode_queries(self, queries: np.ndarray) -> np.ndarray:
        """Queries as packed signatures under the store's projection."""
        return self.projector.transform(queries)

    def device_code_bytes(self) -> int:
        """Resident bytes: the packed signature matrix."""
        return int(self.codes.nbytes)


class PQCodeStore:
    """Product-quantization codes resident on device; ADC traversal."""

    codec = "pq"
    traversal_metric = "l2"

    def __init__(self, data: np.ndarray, tier: TieredConfig) -> None:
        data = np.atleast_2d(np.asarray(data, dtype=np.float32))
        self.dim = data.shape[1]
        self.quantizer = ProductQuantizer(
            self.dim, m=tier.pq_m, ksub=tier.pq_ksub, seed=tier.seed
        ).train(data)
        #: Packed ``(n, m)`` uint8 codes — the device-resident form.
        self.codes = self.quantizer.encode(data)
        #: Decoded rows: L2 to them is exactly the ADC distance.
        self.traversal_data = np.ascontiguousarray(
            self.quantizer.decode(self.codes).astype(np.float32)
        )

    @property
    def cost_dim(self) -> int:
        """4-byte words per code (``m`` bytes rounded up)."""
        return max(1, -(-self.quantizer.m // 4))

    @property
    def query_device_bytes(self) -> int:
        """Bytes uploaded per query: the raw vector (table built on device)."""
        return self.dim * 4

    def flops_per_distance(self, _dim: int = 0) -> int:
        """One table lookup + one add per sub-quantizer."""
        return 2 * self.quantizer.m

    def encode_queries(self, queries: np.ndarray) -> np.ndarray:
        """Queries traverse as-is: L2(query, decoded row) == ADC."""
        return np.atleast_2d(np.asarray(queries, dtype=np.float32))

    def device_code_bytes(self) -> int:
        """Resident bytes: code matrix plus the codebooks."""
        return int(self.codes.nbytes) + self.quantizer.memory_bytes()


def make_store(data: np.ndarray, tier: TieredConfig):
    """Build the configured compressed store over ``data``."""
    if tier.codec == "bits":
        return BitCodeStore(data, tier)
    return PQCodeStore(data, tier)

"""Configuration for the out-of-core two-tier pipeline.

One frozen dataclass describes everything the tier needs: which codec
compresses the device-resident store (sign-projection bit signatures or
product-quantization codes), how aggressively traversal over-fetches
candidates for the exact re-rank, and how host↔device paging is laid out
(page size, hot-page cache capacity, prefetch on/off).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Supported compressed-store codecs.
TIER_CODECS = ("bits", "pq")


@dataclass(frozen=True)
class TieredConfig:
    """Knobs for the compressed-traversal + exact-re-rank tier.

    Attributes
    ----------
    codec:
        ``"bits"`` — 1-bit sign random projections
        (:class:`~repro.hashing.random_projection.SignRandomProjection`,
        the paper's Sec. V hashing, Hamming traversal) or ``"pq"`` —
        product quantization (:class:`~repro.baselines.pq.ProductQuantizer`,
        ADC traversal).
    num_bits:
        Signature length for the ``bits`` codec (multiple of 32).
    distribution:
        Projection distribution for the ``bits`` codec.
    pq_m / pq_ksub:
        Sub-quantizer count and centroids per sub-space for ``pq``.
    overfetch:
        Candidates fetched per requested ``k``: traversal returns
        ``min(queue_size, overfetch * k)`` approximate candidates which
        the re-rank stage scores exactly.  1 disables over-fetching.
    page_rows:
        Full-precision vectors per transfer page.  Re-rank fetches whole
        pages over PCIe, so larger pages amortize transfer latency but
        waste bandwidth on unused rows.
    cache_pages:
        Device-resident hot-page capacity of the LRU cache (0 disables
        caching).  Charged against the capacity ledger.
    seed:
        Codec training / projection seed.
    """

    codec: str = "bits"
    num_bits: int = 128
    distribution: str = "gaussian"
    pq_m: int = 8
    pq_ksub: int = 16
    overfetch: int = 4
    page_rows: int = 64
    cache_pages: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.codec not in TIER_CODECS:
            raise ValueError(
                f"codec must be one of {TIER_CODECS}, got {self.codec!r}"
            )
        if self.num_bits <= 0 or self.num_bits % 32 != 0:
            raise ValueError("num_bits must be a positive multiple of 32")
        if self.pq_m <= 0:
            raise ValueError("pq_m must be positive")
        if not 1 <= self.pq_ksub <= 256:
            raise ValueError("pq_ksub must be in [1, 256]")
        if self.overfetch < 1:
            raise ValueError("overfetch must be >= 1")
        if self.page_rows < 1:
            raise ValueError("page_rows must be >= 1")
        if self.cache_pages < 0:
            raise ValueError("cache_pages must be >= 0")

"""Out-of-GPU-memory support: 1-bit random projections (Section VII).

High-dimensional float datasets that exceed device memory are compressed
to packed bit vectors: ``h`` signed random projections per point, stored
as ``h/32`` uint32 words.  Hamming distance between bit vectors estimates
the angle between the original vectors, so graph search runs unchanged on
the compressed data: hand the packed array to any searcher or index and
search with ``SearchConfig(metric="hamming")``
(:class:`repro.distances.Metric` scores XOR + popcount over the words).
"""

from repro.hashing.random_projection import SignRandomProjection

__all__ = ["SignRandomProjection"]

"""Comparator methods.

- :class:`~repro.baselines.ivfpq.IVFPQIndex` — inverted-file product
  quantization, the stand-in for GPU Faiss in the paper's comparison.
- :class:`~repro.baselines.flat.FlatIndex` — exact brute-force search
  (ground truth and sanity baseline).
- :func:`~repro.baselines.kmeans.kmeans` — Lloyd's algorithm with
  k-means++ seeding (coarse quantizer substrate).
- :class:`~repro.baselines.pq.ProductQuantizer` — PQ codec with ADC
  tables.
"""

from repro.baselines.kmeans import kmeans
from repro.baselines.pq import ProductQuantizer
from repro.baselines.ivfpq import IVFPQIndex
from repro.baselines.flat import FlatIndex
from repro.baselines.kdtree import KDTreeIndex
from repro.baselines.rp_forest import RPForestIndex
from repro.baselines.lsh import LSHIndex

__all__ = [
    "kmeans",
    "ProductQuantizer",
    "IVFPQIndex",
    "FlatIndex",
    "KDTreeIndex",
    "RPForestIndex",
    "LSHIndex",
]

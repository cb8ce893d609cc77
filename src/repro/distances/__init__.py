"""Distance kernels used throughout the library.

The paper's bulk-distance-computation stage supports the common ANN
measures: p-norm (we implement squared L2), inner product, and cosine
similarity.  :mod:`repro.distances.metrics` provides batched numpy
implementations; :mod:`repro.distances.counted` holds the operation
tally (:class:`OpCounter`) the CPU work-unit timer prices.
"""

from repro.distances.metrics import (
    METRICS,
    Metric,
    get_metric,
)
from repro.distances.counted import OpCounter

__all__ = [
    "METRICS",
    "Metric",
    "get_metric",
    "OpCounter",
]

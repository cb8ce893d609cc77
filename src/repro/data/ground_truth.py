"""Exact nearest neighbors by blocked brute force."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.distances import get_metric

#: Bytes of float32 distances one tile of query rows may hold.  The tile —
#: and ``argpartition``'s int64 index over it, twice as large — is the only
#: dataset-sized temporary, so this bounds peak memory whatever ``n`` is.
#: Measured at n = 4000–8000: 2 MiB tiles score 15 % slower and more, 8 MiB
#: tiles no faster (and 6 % slower inside the benchmark's set-up).
TILE_BYTES = 4 << 20


def ground_truth(
    data: np.ndarray,
    queries: np.ndarray,
    k: int,
    metric: str = "l2",
    block: Optional[int] = None,
    exclude_self: bool = False,
) -> np.ndarray:
    """Exact top-``k`` ids for each query, as an ``(q, k)`` int64 array.

    Queries are scored a tile of rows at a time; ``block`` overrides the
    tile height otherwise worked out from ``len(data)`` under
    :data:`TILE_BYTES` (the result does not depend on it).  With
    ``exclude_self`` query ``i`` *is* ``data[i]`` and is left out of its own
    neighbors — the exact kNN graph.
    """
    n = len(data)
    if k <= 0:
        raise ValueError("k must be positive")
    candidates = n - 1 if exclude_self else n
    if k > candidates:
        raise ValueError(f"k={k} exceeds the {candidates} points a query can be matched to")
    if block is None:
        block = max(1, TILE_BYTES // (4 * n))
    m = get_metric(metric)
    q = len(queries)
    # The pivot each caller has always partitioned around: which of several
    # points tied at the k-th distance make the cut depends on it.
    kth = k if exclude_self else k - 1
    out = np.empty((q, k), dtype=np.int64)
    for start in range(0, q, block):
        stop = min(start + block, q)
        d = m.pairwise(queries[start:stop], data)
        if exclude_self:
            d[np.arange(stop - start), np.arange(start, stop)] = np.inf
        idx = np.argpartition(d, kth, axis=1)[:, :k]
        # order the k winners by distance for determinism
        part = np.take_along_axis(d, idx, axis=1)
        order = np.argsort(part, axis=1, kind="stable")
        out[start:stop] = np.take_along_axis(idx, order, axis=1)
    return out

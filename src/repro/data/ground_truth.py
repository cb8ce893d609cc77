"""Exact nearest neighbors by blocked brute force."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.distances import get_metric
from repro.distances.metrics import PANEL_BYTES

#: Bytes of float32 distances one tile of query rows may hold.  The tile is
#: the only dataset-sized temporary: ``Metric.pairwise`` finishes it in place
#: and the top-k selection walks it in blocks of ``PANEL_BYTES`` of int64
#: index, so this bounds peak memory whatever ``n`` is.  Measured at
#: n = 4000–8000: 2 MiB tiles score 15 % slower and more, 8 MiB tiles no
#: faster (and 6 % slower inside the benchmark's set-up).
TILE_BYTES = 4 << 20

#: Bytes of float64 rows one chunk may hold where set-up widens float32 rows
#: to float64 before reducing them (the dataset generators, the tier's sign
#: projection): a quarter tile, so such a stage holds at most two chunks
#: (2 MiB) beside its output whatever ``n`` is.
CHUNK_BYTES = TILE_BYTES // 4


def chunk_rows(row_bytes: int) -> int:
    """Most rows of ``row_bytes`` bytes one :data:`CHUNK_BYTES` chunk holds."""
    return max(1, CHUNK_BYTES // row_bytes)


def row_chunks(total: int, row_bytes: int) -> Iterator[Tuple[int, int]]:
    """``(lo, hi)`` ranges covering ``[0, total)`` in row order.

    ``ceil(total / chunk_rows(row_bytes))`` near-equal parts, never a full
    chunk plus a sliver, so a short input is one chunk and no chunk is
    much shorter than another (a GEMM over a sliver of rows may take a
    different kernel than over the whole, and round differently).
    """
    parts = max(1, -(-total // chunk_rows(row_bytes)))
    for part in range(parts):
        yield part * total // parts, (part + 1) * total // parts


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
    :data:`TILE_BYTES` (the result does not depend on it).  Each tile's
    ``argpartition`` / ``argsort`` selection runs a few rows at a time, so
    its int64 index is ``PANEL_BYTES``, not tile-sized.  With
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
    rows = max(1, PANEL_BYTES // (8 * n))
    out = np.empty((q, k), dtype=np.int64)
    for start in range(0, q, block):
        stop = min(start + block, q)
        d = m.pairwise(queries[start:stop], data)
        if exclude_self:
            d[np.arange(stop - start), np.arange(start, stop)] = np.inf
        # each row's selection ignores the others, so a few rows at a time
        # pick the same ids as the whole tile at once
        for lo in range(0, stop - start, rows):
            sub = d[lo : lo + rows]
            idx = np.argpartition(sub, kth, axis=1)[:, :k]
            # order the k winners by distance for determinism
            part = np.take_along_axis(sub, idx, axis=1)
            order = np.argsort(part, axis=1, kind="stable")
            out[start + lo : start + lo + len(sub)] = np.take_along_axis(idx, order, axis=1)
        del d, sub  # or the tile is still live while the next one is scored
    return out

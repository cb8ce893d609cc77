"""Exact nearest neighbors by blocked brute force."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.distances import Metric, get_metric
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
    :data:`TILE_BYTES`, and each tile goes through :func:`band_top_k`.  No
    tile is one row long (numpy would score it by GEMV, whose bits differ
    from the GEMM's): a one-row last tile joins the one before it, and a
    lone query is scored as a two-row tile of itself twice.  So the result
    does not depend on ``block``.  With
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
        block = TILE_BYTES // (4 * n)
    block = max(2, block)
    m = get_metric(metric)
    q = len(queries)
    # the dataset's side of every tile, reduced once
    norms = m.pairwise_norms(data)
    out = np.empty((q, k), dtype=np.int64)
    if q == 1:
        own = np.zeros(2, dtype=np.int64) if exclude_self else None
        out[:] = band_top_k(m, queries[[0, 0]], data, norms, k, own)[:1]
        return out
    starts = list(range(0, q, block))
    if starts and q - starts[-1] == 1:
        del starts[-1]
    for start, stop in zip(starts, starts[1:] + [q]):
        own = np.arange(start, stop) if exclude_self else None
        out[start:stop] = band_top_k(m, queries[start:stop], data, norms, k, own)
    return out


def band_top_k(
    m: Metric,
    band: np.ndarray,
    data: np.ndarray,
    norms: Optional[np.ndarray],
    k: int,
    own: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Exact top-``k`` ids of each row of ``band`` against ``data``.

    The one selection every exact table goes through: ``band`` is scored
    in one :meth:`~repro.distances.Metric.pairwise` call (``norms`` is its
    :meth:`~repro.distances.Metric.pairwise_norms` of ``data``), and each
    row's ``argpartition`` / ``argsort`` runs a few rows at a time, so the
    int64 index is ``PANEL_BYTES``, not tile-sized.  ``own[r]``, when
    given, is the id of ``band[r]`` in ``data``: that point is left out of
    its own row.  Rows tied at the cut or within the top ``k`` come out in
    the order this selection gives them.  numpy sends a one-row product
    to GEMV, whose bits differ from the GEMM's (any two or more rows
    match), so a caller that must reproduce another band's bits passes
    two rows or more.
    """
    d = m.pairwise(band, data, norms)
    # The pivot each caller has always partitioned around: which of several
    # points tied at the k-th distance make the cut depends on it.
    kth = k - 1
    if own is not None:
        d[np.arange(len(band)), own] = np.inf
        kth = k
    rows = max(1, PANEL_BYTES // (8 * len(data)))
    out = np.empty((len(band), k), dtype=np.int64)
    # each row's selection ignores the others, so a few rows at a time pick
    # the same ids as the whole tile at once
    for lo in range(0, len(band), rows):
        sub = d[lo : lo + rows]
        idx = np.argpartition(sub, kth, axis=1)[:, :k]
        # order the k winners by distance for determinism
        part = np.take_along_axis(sub, idx, axis=1)
        order = np.argsort(part, axis=1, kind="stable")
        out[lo : lo + len(sub)] = np.take_along_axis(idx, order, axis=1)
    return out

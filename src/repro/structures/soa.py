"""Structure-of-arrays batched priority structures.

The batched search engine (:mod:`repro.core.batched`) advances ``B``
queries in lockstep, so its frontier queue and result pool must operate on
*whole batches* per call instead of one ``(distance, vertex)`` entry at a
time.  Both structures here store a ``(B, width)`` matrix of **packed
keys**: a 64-bit integer whose high 32 bits are the distance (an
order-preserving transform of the float32 bit pattern) and whose low 32
bits are the vertex id.  A single ``np.sort`` row-wise then yields exactly
the lexicographic ``(distance, id)`` order the serial heaps use — the same
trick GPU implementations use to sort candidates with one radix pass.

Empty slots hold :data:`PAD_KEY` (all ones), which compares greater than
any real entry and therefore always sorts to the end of a row.
"""

from __future__ import annotations

# lint: hot-path

from typing import Optional, Tuple

import numpy as np

__all__ = [
    "PAD_KEY",
    "pack_keys",
    "pack_rowid",
    "unpack_rowid",
    "unpack_distances",
    "unpack_ids",
    "BatchedTopK",
    "BatchedFrontier",
]

#: Sentinel for an empty slot; sorts after every real packed key.
PAD_KEY = np.uint64(0xFFFFFFFFFFFFFFFF)

_SIGN32 = np.uint32(0x80000000)  # lint: allow(narrow-int) the float32 sign bit
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(32)

_INT64_MAX = 9223372036854775807


def pack_rowid(rows: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """Pack ``(row, id)`` pairs into the composite key ``row * n + id``.

    The single checked entry point for every composite row/id key in the
    batched builders.  ``ids`` must lie in ``[0, n)`` (so the key decodes
    uniquely) and the largest key must fit ``int64``; both bounds are
    asserted here once — O(1) reductions next to O(m log m) sorts.
    ``rows`` may exceed ``n`` (nested packs use a widened row
    coordinate); only the product bound matters.
    """
    rows = np.asarray(rows)
    ids = np.asarray(ids)
    n = int(n)
    if rows.size:
        if int(ids.min()) < 0 or int(ids.max()) >= n:
            raise ValueError("pack_rowid: ids must lie in [0, n)")
        if int(rows.min()) < 0 or int(rows.max()) > (_INT64_MAX - (n - 1)) // n:
            raise OverflowError("pack_rowid: row * n + id exceeds int64")
    return rows * np.int64(n) + ids


def unpack_rowid(keys: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Invert :func:`pack_rowid`: composite keys back to ``(rows, ids)``.

    ``ids`` lands in ``[0, n)`` by construction of the modulus; the
    ``rows`` bound holds for any key packed by :func:`pack_rowid` with
    row coordinates below ``n`` (the common, non-nested case).
    """
    return np.divmod(keys, np.int64(n))


def pack_keys(dists: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Pack float32 distances and non-negative int ids into sortable uint64.

    The float bits are remapped so that unsigned integer order equals
    numeric float order (sign bit flipped for positives, all bits inverted
    for negatives).  ``-0.0`` is canonicalized to ``+0.0`` first so ties
    between the two zeros break on id, exactly like tuple comparison.
    """
    d = np.ascontiguousarray(dists, dtype=np.float32) + np.float32(0.0)
    bits = d.view(np.uint32)  # lint: allow(narrow-int) a float32 bit pattern is 32 bits
    mapped = np.where(bits & _SIGN32, ~bits, bits | _SIGN32)
    return (mapped.astype(np.uint64) << _SHIFT) | ids.astype(np.uint64)


def unpack_distances(keys: np.ndarray) -> np.ndarray:
    """Recover the float32 distances from packed keys.

    ``PAD_KEY`` slots decode to NaN; callers mask them (``keys !=
    PAD_KEY``) before use.
    """
    # lint: allow(narrow-int) a key's high word is 32 bits
    mapped = (keys >> _SHIFT).astype(np.uint32)
    # lint: allow(narrow-int) a key's high word is 32 bits
    bits = np.where(mapped & _SIGN32, mapped & np.uint32(0x7FFFFFFF), ~mapped)
    return np.ascontiguousarray(bits).view(np.float32)


def unpack_ids(keys: np.ndarray) -> np.ndarray:
    """Recover the vertex ids from packed keys (``PAD_KEY`` -> 0xFFFFFFFF)."""
    return (keys & _LOW32).astype(np.int64)


class BatchedTopK:
    """``(B, pool)`` result pools, each row sorted ascending by packed key.

    The batched analogue of :class:`repro.structures.heap.TopKMaxHeap`:
    every row always holds the ``pool`` lexicographically-smallest entries
    pushed into it so far.  Because a bounded max-heap's *content* is
    insertion-order independent, one sorted merge per search round is
    exactly equivalent to the serial per-entry ``push_bounded`` sequence.
    """

    def __init__(self, batch: int, pool: int) -> None:
        if batch <= 0 or pool <= 0:
            raise ValueError("batch and pool must be positive")
        self.pool = pool
        self.keys = np.full((batch, pool), PAD_KEY, dtype=np.uint64)

    def merge(self, new_keys: np.ndarray) -> np.ndarray:
        """Push a ``(B, m)`` key matrix (PAD_KEY-masked) into every row.

        Returns the ``(B, m)`` overflow tail — entries (real or PAD) that
        fell outside the pool, i.e. the evictions of the serial heap.
        """
        combined = np.concatenate([self.keys, new_keys], axis=1)
        combined.sort(axis=1)
        self.keys = np.ascontiguousarray(combined[:, : self.pool])
        return combined[:, self.pool :]

    def full_and_worst(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row ``(is_full, worst_distance)``.

        ``worst_distance`` is only meaningful where ``is_full`` — non-full
        rows decode the PAD sentinel (NaN), mirroring the serial heap's
        ``+inf`` convention under the guard ``is_full``.
        """
        tail = self.keys[:, self.pool - 1]
        full = tail != PAD_KEY
        return full, unpack_distances(tail)


class BatchedFrontier:
    """``(B, width)`` search frontiers, each row sorted ascending.

    The batched analogue of the serial frontier: a
    :class:`~repro.structures.minmax_heap.BoundedPriorityQueue` when
    ``capacity`` is given (Observation 1's bounded queue — merges evict
    the per-row maxima) or an unbounded min-heap when ``capacity`` is
    ``None`` (the row width grows as needed).

    Rows are consumed from the front: a round's pops are the first
    ``n_pop[b]`` entries of row ``b``, which :meth:`merge` then retires
    while inserting the round's accepted candidates — one sorted merge
    replacing the serial pop/push/evict sequence, with identical final
    content per row.
    """

    def __init__(self, batch: int, capacity: Optional[int] = None) -> None:
        if batch <= 0:
            raise ValueError("batch must be positive")
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        width = capacity if capacity is not None else 1
        self.keys = np.full((batch, width), PAD_KEY, dtype=np.uint64)

    @property
    def width(self) -> int:
        return self.keys.shape[1]

    def seed(self, keys: np.ndarray) -> None:
        """Initialize every row with one entry (the search entry point)."""
        self.keys[:, 0] = keys

    def window(self, steps: int) -> np.ndarray:
        """The first ``min(steps, width)`` columns (this round's pop window)."""
        return self.keys[:, :steps]

    def merge(self, n_pop: np.ndarray, new_keys: np.ndarray) -> np.ndarray:
        """Retire the first ``n_pop[b]`` entries per row and insert candidates.

        Parameters
        ----------
        n_pop:
            ``(B,)`` count of leading entries consumed by this round's pops.
        new_keys:
            ``(B, m)`` packed candidate keys, PAD_KEY where rejected.

        Returns the eviction tail: for a bounded frontier, every (real or
        PAD) key pushed beyond ``capacity`` — the serial queue's evictions,
        including candidates "evicted on arrival".  Unbounded frontiers
        never evict and return an empty ``(B, 0)`` array.
        """
        # Clear the popped prefix inside its own width, not the whole row.
        head = self.keys[:, : int(n_pop.max())]
        head[np.arange(head.shape[1]) < n_pop[:, None]] = PAD_KEY
        combined = np.concatenate([self.keys, new_keys], axis=1)
        combined.sort(axis=1)
        if self.capacity is not None:
            self.keys = np.ascontiguousarray(combined[:, : self.capacity])
            return combined[:, self.capacity :]
        # As wide as the longest row: real keys are each row's prefix.
        width = max(1, int((combined != PAD_KEY).sum(axis=1).max()))
        self.keys = np.ascontiguousarray(combined[:, :width])
        return combined[:, :0]

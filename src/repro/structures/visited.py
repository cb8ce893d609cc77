"""Facade over the visited-set backends.

The SONG searcher asks only for ``insert`` / ``contains`` / ``delete`` /
``memory_bytes``; :class:`VisitedSet` routes those calls to the configured
backend and records which operations the search performed (for the SIMT
cost model).
"""

from __future__ import annotations

import enum

from repro.structures.bloom import BloomFilter
from repro.structures.cuckoo import CuckooFilter
from repro.structures.hash_table import OpenAddressingSet


class VisitedBackend(str, enum.Enum):
    """Available implementations of the visited set."""

    HASH_TABLE = "hashtable"
    BLOOM = "bloom"
    CUCKOO = "cuckoo"
    PYSET = "pyset"  # exact reference backend (unbounded, for testing)

    def supports_deletion(self) -> bool:
        """Whether the backend can honour the visited-deletion optimization."""
        return self in (VisitedBackend.HASH_TABLE, VisitedBackend.CUCKOO, VisitedBackend.PYSET)


class _PySetBackend:
    """Reference backend: a plain Python set (unbounded memory)."""

    def __init__(self) -> None:
        self._set = set()
        self.probes = 0

    def __len__(self) -> int:
        return len(self._set)

    def insert(self, key: int) -> bool:
        self.probes += 1
        if key in self._set:
            return False
        self._set.add(key)
        return True

    def contains(self, key: int) -> bool:
        self.probes += 1
        return key in self._set

    def delete(self, key: int) -> bool:
        self.probes += 1
        if key in self._set:
            self._set.remove(key)
            return True
        return False

    def memory_bytes(self) -> int:
        # CPython set entries are ~60 bytes each; we report the GPU-relevant
        # number: 4 bytes per stored 32-bit key.
        return 4 * len(self._set)


def _make_backend(backend: VisitedBackend, capacity: int, fp_rate: float):
    if backend == VisitedBackend.HASH_TABLE:
        return OpenAddressingSet(capacity)
    if backend == VisitedBackend.BLOOM:
        return BloomFilter.for_items(capacity, fp_rate)
    if backend == VisitedBackend.CUCKOO:
        return CuckooFilter(capacity)
    if backend == VisitedBackend.PYSET:
        return _PySetBackend()
    raise ValueError(f"unknown visited backend: {backend!r}")


class VisitedSet:
    """The ``visited`` structure of Algorithm 1, backend-switchable.

    Parameters
    ----------
    backend:
        Which implementation to use.
    capacity:
        Expected number of stored keys.  With the visited-deletion
        optimization this is bounded by 2K; otherwise it must cover the
        whole search frontier.
    fp_rate:
        Target false-positive rate for the Bloom backend.
    """

    def __init__(
        self,
        backend: VisitedBackend = VisitedBackend.HASH_TABLE,
        capacity: int = 1024,
        fp_rate: float = 0.01,
        auto_grow: bool = True,
    ) -> None:
        self.backend = VisitedBackend(backend)
        self.capacity = capacity
        self.fp_rate = fp_rate
        self.auto_grow = auto_grow
        self._impl = _make_backend(self.backend, capacity, fp_rate)
        # Shadow of the stored keys, used only to rebuild on growth (the
        # CUDA analogue is re-allocating the table in global memory).
        self._shadow = set()
        #: insert + contains + delete calls issued by the search.
        self.ops = 0
        #: Times the table overflowed and was reallocated at 2x capacity.
        self.grow_events = 0

    def __len__(self) -> int:
        return len(self._impl)

    def insert(self, key: int) -> bool:
        """Mark ``key`` visited.  Returns False if already marked."""
        self.ops += 1
        try:
            added = self._impl.insert(key)
        except OverflowError:
            if not self.auto_grow:
                raise
            self._grow()
            added = self._impl.insert(key)
        if added:
            self._shadow.add(key)
        return added

    def _grow(self) -> None:
        """Reallocate the backend at double capacity and re-insert keys."""
        self.capacity *= 2
        self.grow_events += 1
        self._impl = _make_backend(self.backend, self.capacity, self.fp_rate)
        for key in self._shadow:
            self._impl.insert(key)

    def contains(self, key: int) -> bool:
        """Visited test (may be a false positive on probabilistic backends)."""
        self.ops += 1
        return self._impl.contains(key)

    def delete(self, key: int) -> bool:
        """Unmark ``key`` (visited-deletion optimization)."""
        if not self.backend.supports_deletion():
            raise NotImplementedError(
                f"{self.backend.value} backend does not support deletion"
            )
        self.ops += 1
        removed = self._impl.delete(key)
        if removed:
            self._shadow.discard(key)
        return removed

    def memory_bytes(self) -> int:
        """GPU memory footprint of the backing store."""
        return self._impl.memory_bytes()

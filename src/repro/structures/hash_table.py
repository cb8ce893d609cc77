"""Open-addressing hash set with linear probing.

This is the GPU-friendly ``visited`` table from Section IV-B of the paper:
a fixed-length slot array, no dynamic allocation, linear probing for
collisions.  Deletion uses the classic backward-shift algorithm so probe
chains stay intact without tombstones (tombstones would grow unboundedly
under the visited-deletion workload).

Keys are non-negative integers (vertex ids).  Capacity is fixed at
construction — inserting beyond the load limit raises, mirroring how the
CUDA kernel would overflow its shared-memory allocation.
"""

from __future__ import annotations

from typing import List

_EMPTY = -1


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


class OpenAddressingSet:
    """Fixed-capacity linear-probing hash set of non-negative ints."""

    #: Maximum load factor before insert refuses (keeps probes short).
    MAX_LOAD = 0.75

    def __init__(self, capacity: int) -> None:
        """Create a set able to hold ``capacity`` keys.

        The slot array is sized to the next power of two at least
        ``capacity / MAX_LOAD`` so probing stays O(1) expected.
        """
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._slots_len = _next_pow2(max(8, int(capacity / self.MAX_LOAD) + 1))
        self._mask = self._slots_len - 1
        self._slots: List[int] = [_EMPTY] * self._slots_len
        self._size = 0
        #: Total probe steps performed (memory-access accounting).
        self.probes = 0

    def __len__(self) -> int:
        return self._size

    def _hash(self, key: int) -> int:
        # Fibonacci hashing: cheap, well-distributed for integer ids.
        return ((key * 2654435761) & 0xFFFFFFFF) & self._mask

    def contains(self, key: int) -> bool:
        """Membership test; expected O(1)."""
        if key < 0:
            raise ValueError("keys must be non-negative")
        i = self._hash(key)
        slots = self._slots
        while True:
            self.probes += 1
            cur = slots[i]
            if cur == _EMPTY:
                return False
            if cur == key:
                return True
            i = (i + 1) & self._mask

    def insert(self, key: int) -> bool:
        """Insert ``key``; returns False if it was already present.

        Raises
        ------
        OverflowError
            If the set already holds ``capacity`` keys — the analogue of a
            fixed shared-memory array overflowing on the GPU.
        """
        if key < 0:
            raise ValueError("keys must be non-negative")
        i = self._hash(key)
        slots = self._slots
        while True:
            self.probes += 1
            cur = slots[i]
            if cur == key:
                return False
            if cur == _EMPTY:
                if self._size >= self.capacity:
                    raise OverflowError(
                        f"open-addressing set is full (capacity={self.capacity})"
                    )
                slots[i] = key
                self._size += 1
                return True
            i = (i + 1) & self._mask

    def delete(self, key: int) -> bool:
        """Remove ``key``; returns False if absent.  Backward-shift deletion."""
        if key < 0:
            raise ValueError("keys must be non-negative")
        slots = self._slots
        mask = self._mask
        i = self._hash(key)
        while True:
            self.probes += 1
            cur = slots[i]
            if cur == _EMPTY:
                return False
            if cur == key:
                break
            i = (i + 1) & mask
        # Backward shift: walk the probe chain and move displaced keys back.
        slots[i] = _EMPTY
        j = i
        while True:
            j = (j + 1) & mask
            cur = slots[j]
            if cur == _EMPTY:
                break
            home = self._hash(cur)
            # cur may move into slot i if its home position does not lie
            # strictly between i (exclusive) and j (inclusive) cyclically.
            if self._cyclic_between(i, home, j):
                continue
            slots[i] = cur
            slots[j] = _EMPTY
            i = j
        self._size -= 1
        return True

    @staticmethod
    def _cyclic_between(i: int, home: int, j: int) -> bool:
        """True if ``home`` lies in the cyclic interval (i, j]."""
        if i < j:
            return i < home <= j
        return home > i or home <= j

    def memory_bytes(self) -> int:
        """Footprint of the slot array assuming 32-bit keys (as on GPU)."""
        return 4 * self._slots_len

"""Cuckoo filter visited-set backend (Fan et al., CoNEXT 2014).

The visited-deletion optimization (Section IV-E of the paper) needs a
probabilistic set that supports *deletion*, which a Bloom filter cannot do.
A Cuckoo filter stores small fingerprints in two candidate buckets per key
(partial-key cuckoo hashing), so a stored key can later be removed by
erasing its fingerprint.

Like the Bloom filter it admits false positives (fingerprint collisions)
and guarantees no false negatives for keys currently stored.
"""

from __future__ import annotations

from typing import List


def _hash32(x: int) -> int:
    x = (x ^ (x >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    x = (x ^ (x >> 16)) * 0x45D9F3B & 0xFFFFFFFF
    return (x ^ (x >> 16)) & 0xFFFFFFFF


def _next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p <<= 1
    return p


class CuckooFilter:
    """Bucketized cuckoo filter over non-negative integer keys.

    Parameters
    ----------
    capacity:
        Number of keys the filter should comfortably hold.  The bucket
        array is sized with ~84% target load (4-slot buckets).
    fingerprint_bits:
        Fingerprint width; larger means fewer false positives.
    bucket_size:
        Slots per bucket (4 is the standard sweet spot).
    max_kicks:
        Eviction-chain bound before insert declares the filter full.
    seed:
        Seed for the eviction choice RNG, so runs are reproducible.
    """

    def __init__(
        self,
        capacity: int,
        fingerprint_bits: int = 12,
        bucket_size: int = 4,
        max_kicks: int = 500,
        seed: int = 0x5EED,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 4 <= fingerprint_bits <= 30:
            raise ValueError("fingerprint_bits must be in [4, 30]")
        if bucket_size <= 0:
            raise ValueError("bucket_size must be positive")
        self.capacity = capacity
        self.fingerprint_bits = fingerprint_bits
        self.bucket_size = bucket_size
        self.max_kicks = max_kicks
        self.num_buckets = _next_pow2(max(2, int(capacity / (bucket_size * 0.84)) + 1))
        self._mask = self.num_buckets - 1
        self._buckets: List[List[int]] = [[] for _ in range(self.num_buckets)]
        self._size = 0
        self._rng_state = seed & 0xFFFFFFFF
        #: Memory probes performed (accounting).
        self.probes = 0

    def __len__(self) -> int:
        return self._size

    # -- hashing ---------------------------------------------------------

    def _fingerprint(self, key: int) -> int:
        fp = _hash32(key ^ 0xA5A5A5A5) & ((1 << self.fingerprint_bits) - 1)
        return fp if fp != 0 else 1  # 0 is reserved for "empty"

    def _index1(self, key: int) -> int:
        return _hash32(key) & self._mask

    def _alt_index(self, index: int, fp: int) -> int:
        return (index ^ _hash32(fp)) & self._mask

    def _rand(self, n: int) -> int:
        # xorshift32 — deterministic eviction choices.
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._rng_state = x
        return x % n

    # -- operations --------------------------------------------------------

    def insert(self, key: int) -> bool:
        """Insert ``key``.  Returns False if it already appears present.

        Raises
        ------
        OverflowError
            If the eviction chain exceeds ``max_kicks`` (filter full).
        """
        if key < 0:
            raise ValueError("keys must be non-negative")
        fp = self._fingerprint(key)
        i1 = self._index1(key)
        i2 = self._alt_index(i1, fp)
        self.probes += 2
        if fp in self._buckets[i1] or fp in self._buckets[i2]:
            return False
        for i in (i1, i2):
            if len(self._buckets[i]) < self.bucket_size:
                self._buckets[i].append(fp)
                self._size += 1
                return True
        # Both buckets full: relocate existing fingerprints.
        i = i1 if self._rand(2) == 0 else i2
        for _ in range(self.max_kicks):
            self.probes += 1
            slot = self._rand(self.bucket_size)
            fp, self._buckets[i][slot] = self._buckets[i][slot], fp
            i = self._alt_index(i, fp)
            if len(self._buckets[i]) < self.bucket_size:
                self._buckets[i].append(fp)
                self._size += 1
                return True
        raise OverflowError(
            f"cuckoo filter is full (capacity={self.capacity}, size={self._size})"
        )

    def contains(self, key: int) -> bool:
        """Membership test; false positives possible, no false negatives."""
        if key < 0:
            raise ValueError("keys must be non-negative")
        fp = self._fingerprint(key)
        i1 = self._index1(key)
        i2 = self._alt_index(i1, fp)
        self.probes += 2
        return fp in self._buckets[i1] or fp in self._buckets[i2]

    def delete(self, key: int) -> bool:
        """Remove one copy of the key's fingerprint; False if absent."""
        if key < 0:
            raise ValueError("keys must be non-negative")
        fp = self._fingerprint(key)
        i1 = self._index1(key)
        i2 = self._alt_index(i1, fp)
        self.probes += 2
        for i in (i1, i2):
            bucket = self._buckets[i]
            if fp in bucket:
                bucket.remove(fp)
                self._size -= 1
                return True
        return False

    def memory_bytes(self) -> int:
        """Footprint assuming packed fingerprint slots."""
        bits = self.num_buckets * self.bucket_size * self.fingerprint_bits
        return (bits + 7) // 8

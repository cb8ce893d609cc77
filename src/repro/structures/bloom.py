"""Bloom filter visited-set backend.

Section IV-B of the paper: the visited test tolerates false positives (a
small recall loss) but not false negatives (re-expansion and duplicate
queue insertions).  A Bloom filter guarantees zero false negatives in a
small constant memory footprint — the paper's sizing example is ~300
32-bit words for 1,000 insertions at <1% false-positive rate.

The filter does not support deletion, so it cannot back the
visited-deletion optimization (that needs the Cuckoo filter).
"""

from __future__ import annotations

import math

import numpy as np


def optimal_parameters(expected_items: int, fp_rate: float) -> tuple:
    """Return ``(num_bits, num_hashes)`` for a target false-positive rate."""
    if expected_items <= 0:
        raise ValueError("expected_items must be positive")
    if not 0.0 < fp_rate < 1.0:
        raise ValueError("fp_rate must be in (0, 1)")
    num_bits = int(math.ceil(-expected_items * math.log(fp_rate) / (math.log(2) ** 2)))
    num_hashes = max(1, int(round(num_bits / expected_items * math.log(2))))
    return num_bits, num_hashes


class BloomFilter:
    """Fixed-size Bloom filter over non-negative integer keys.

    Parameters
    ----------
    num_bits:
        Size of the bit array; rounded up to a multiple of 32 so the
        array packs into 32-bit words as it would on a GPU.
    num_hashes:
        Number of hash probes per key.
    """

    def __init__(self, num_bits: int, num_hashes: int = 4) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if num_hashes <= 0:
            raise ValueError("num_hashes must be positive")
        self.num_bits = ((num_bits + 31) // 32) * 32
        self.num_hashes = num_hashes
        self._words = np.zeros(self.num_bits // 32, dtype=np.uint32)
        self._count = 0
        #: Memory probes performed (accounting).
        self.probes = 0

    @classmethod
    def for_items(cls, expected_items: int, fp_rate: float = 0.01) -> "BloomFilter":
        """Construct a filter sized for ``expected_items`` at ``fp_rate``."""
        bits, hashes = optimal_parameters(expected_items, fp_rate)
        return cls(bits, hashes)

    def __len__(self) -> int:
        """Number of *insert calls* for distinct-looking keys (approximate)."""
        return self._count

    def _positions(self, key: int):
        # Double hashing: h1 + i*h2, the standard Kirsch–Mitzenmacher scheme.
        h1 = (key * 2654435761) & 0xFFFFFFFF
        h2 = ((key ^ 0x9E3779B9) * 40503) & 0xFFFFFFFF | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def insert(self, key: int) -> bool:
        """Set the key's bits.  Returns False if all bits were already set."""
        if key < 0:
            raise ValueError("keys must be non-negative")
        was_present = True
        words = self._words
        for pos in self._positions(key):
            self.probes += 1
            w, b = divmod(pos, 32)
            mask = np.uint32(1 << b)
            if not (words[w] & mask):
                was_present = False
                words[w] |= mask
        if not was_present:
            self._count += 1
        return not was_present

    def contains(self, key: int) -> bool:
        """Membership test.  May return false positives, never false negatives."""
        if key < 0:
            raise ValueError("keys must be non-negative")
        words = self._words
        for pos in self._positions(key):
            self.probes += 1
            w, b = divmod(pos, 32)
            if not (words[w] & np.uint32(1 << b)):
                return False
        return True

    def expected_fp_rate(self) -> float:
        """Theoretical false-positive rate at the current fill level."""
        k = self.num_hashes
        n = self._count
        m = self.num_bits
        return (1.0 - math.exp(-k * n / m)) ** k

    def memory_bytes(self) -> int:
        """Footprint of the bit array."""
        return self.num_bits // 8

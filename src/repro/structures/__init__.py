"""Search-time data structures designed for fixed memory footprints.

These mirror the structures SONG keeps in GPU shared/local memory:

- :class:`~repro.structures.heap.MinHeap` / ``MaxHeap`` — reference binary
  heaps used by the CPU Algorithm 1.
- :class:`~repro.structures.minmax_heap.SymmetricMinMaxHeap` — the bounded
  double-ended priority queue from the paper (Arvind & Rangan 1999).
- :class:`~repro.structures.hash_table.OpenAddressingSet` — linear-probing
  hash set with deletion (tombstone-free, via backward-shift).
- :class:`~repro.structures.bloom.BloomFilter` — no false negatives, small
  constant memory, no deletion.
- :class:`~repro.structures.cuckoo.CuckooFilter` — probabilistic set *with*
  deletion, enabling the visited-deletion optimization.
- :class:`~repro.structures.visited.VisitedSet` — facade selecting a backend.
- :mod:`~repro.structures.soa` — structure-of-arrays batched frontier and
  top-K pools (packed uint64 keys) for the lockstep multi-query engine.
"""

from repro.structures.heap import MaxHeap, MinHeap
from repro.structures.minmax_heap import BoundedPriorityQueue, SymmetricMinMaxHeap
from repro.structures.hash_table import OpenAddressingSet
from repro.structures.bloom import BloomFilter
from repro.structures.cuckoo import CuckooFilter
from repro.structures.visited import VisitedBackend, VisitedSet
from repro.structures.soa import (
    PAD_KEY,
    BatchedFrontier,
    BatchedTopK,
    pack_keys,
    unpack_distances,
    unpack_ids,
)

__all__ = [
    "PAD_KEY",
    "BatchedFrontier",
    "BatchedTopK",
    "pack_keys",
    "unpack_distances",
    "unpack_ids",
    "MinHeap",
    "MaxHeap",
    "SymmetricMinMaxHeap",
    "BoundedPriorityQueue",
    "OpenAddressingSet",
    "BloomFilter",
    "CuckooFilter",
    "VisitedSet",
    "VisitedBackend",
]

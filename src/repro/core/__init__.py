"""SONG's core: the 3-stage decoupled graph search and its optimizations.

Public entry points:

- :class:`~repro.core.config.SearchConfig` — every knob of the paper
  (queue size, visited backend, bounded queue / selected insertion /
  visited deletion, multi-query, multi-step probing).
- :func:`~repro.core.algorithm1.algorithm1_search` — the reference CPU
  best-first search, exactly Algorithm 1 of the paper.
- :class:`~repro.core.song.SongSearcher` — the decoupled searcher
  (functional result + one operation record, :class:`SearchStats`, that
  the GPU and CPU machine models price afterwards).
- :class:`~repro.core.batched.BatchedSongSearcher` — the vectorized
  lockstep engine advancing a whole query batch per round (warp-per-query
  execution in numpy); ``SongSearcher.search_batch`` auto-dispatches to it.
- :class:`~repro.core.gpu_kernel.GpuSongIndex` — SONG on the SIMT
  simulator: batch queries, kernel timing, stage profiles.
- :class:`~repro.core.cpu_song.CpuSongIndex` — the engineered CPU variant
  of Fig. 15.
"""

from repro.core.config import (
    GRAPH_TYPES,
    OptimizationLevel,
    SearchConfig,
)
from repro.core.algorithm1 import algorithm1_search
from repro.core.song import SearchStats, SongSearcher
from repro.core.batched import BatchedSongSearcher
from repro.core.gpu_kernel import GpuSongIndex
from repro.core.cpu_song import CpuSongIndex
from repro.core.sharding import ShardedSongIndex

__all__ = [
    "ShardedSongIndex",
    "SearchConfig",
    "GRAPH_TYPES",
    "SearchStats",
    "OptimizationLevel",
    "algorithm1_search",
    "SongSearcher",
    "BatchedSongSearcher",
    "GpuSongIndex",
    "CpuSongIndex",
]

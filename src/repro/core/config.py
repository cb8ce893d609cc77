"""Search configuration: every knob the paper evaluates."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.structures.visited import VisitedBackend

#: Graph families the repo can build and serve (see ``repro.graphs``).
GRAPH_TYPES = ("nsw", "hnsw", "nsg", "dpg", "cagra", "knn")


class OptimizationLevel(str, enum.Enum):
    """Named bundles matching the series of the paper's Fig. 7."""

    BASELINE = "hashtable"  # bounded queue only, plain hash table
    SELECTED_INSERTION = "hashtable-sel"
    SELECTED_AND_DELETION = "hashtable-sel-del"
    BLOOM = "bloomfilter"
    CUCKOO = "cuckoofilter"


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of a SONG search.

    Attributes
    ----------
    k:
        Results returned per query.
    queue_size:
        Capacity of the frontier priority queue and of the result pool
        (the paper's "searching priority queue size"; ≥ k).  This is the
        recall/throughput dial.
    metric:
        Distance measure name (``l2`` / ``ip`` / ``cosine``).
    visited_backend:
        Implementation of the visited set.
    bounded_queue:
        Apply the bounded-priority-queue optimization (Observation 1).
        Disabling it reverts to an unbounded frontier in global memory.
    selected_insertion:
        Only mark/enqueue vertices currently inside the top-K radius.
    visited_deletion:
        Remove vertices from ``visited`` once they leave q ∪ topk
        (requires a deletable backend).
    multi_query:
        Queries sharing one warp (paper Sec. V, Fig. 8).
    probe_steps:
        Vertices popped per candidate-locating step (multi-step probing,
        Fig. 9).
    block_size:
        Threads per block serving one query (paper Sec. VI: "all threads
        in the block are involved" in the bulk distance stage; partials
        are aggregated across warps by thread 0).  Must be a multiple of
        32.  Larger blocks speed the distance stage on high-dimensional
        data but multiply the shared-memory footprint per query and add
        an inter-warp reduction step.
    visited_capacity:
        Expected visited-set population; ``0`` picks a heuristic.
    bloom_fp_rate:
        Target false-positive rate when the backend is a Bloom filter.
    """

    k: int = 10
    queue_size: int = 64
    metric: str = "l2"
    visited_backend: VisitedBackend = VisitedBackend.HASH_TABLE
    bounded_queue: bool = True
    selected_insertion: bool = False
    visited_deletion: bool = False
    multi_query: int = 1
    probe_steps: int = 1
    block_size: int = 32
    visited_capacity: int = 0
    bloom_fp_rate: float = 0.01

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.queue_size < self.k:
            raise ValueError("queue_size must be at least k")
        if self.multi_query not in (1, 2, 4, 8):
            raise ValueError("multi_query must be one of 1, 2, 4, 8")
        if self.probe_steps <= 0:
            raise ValueError("probe_steps must be positive")
        if self.block_size <= 0 or self.block_size % 32 != 0:
            raise ValueError("block_size must be a positive multiple of 32")
        if self.multi_query > 1 and self.block_size != 32:
            raise ValueError("multi_query applies to single-warp blocks only")
        if self.visited_deletion and not self.visited_backend.supports_deletion():
            raise ValueError(
                f"visited deletion requires a deletable backend, "
                f"not {self.visited_backend.value}"
            )
        if not 0.0 < self.bloom_fp_rate < 1.0:
            raise ValueError("bloom_fp_rate must be in (0, 1)")

    def effective_visited_capacity(self, degree: int) -> int:
        """Visited-set sizing for a graph of the given degree.

        With visited deletion the population is bounded by 2×queue_size
        (q ∪ topk); otherwise budget for the whole expansion frontier.
        """
        if self.visited_capacity > 0:
            return self.visited_capacity
        if self.visited_deletion:
            return max(16, 2 * self.queue_size + degree)
        return max(256, 8 * self.queue_size * self.probe_steps + 4 * degree)

    def with_options(self, **kwargs) -> "SearchConfig":
        """A copy with selected fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def from_level(cls, level: OptimizationLevel, **kwargs) -> "SearchConfig":
        """Build a config matching one of Fig. 7's named series."""
        level = OptimizationLevel(level)
        if level == OptimizationLevel.BASELINE:
            opts = dict(visited_backend=VisitedBackend.HASH_TABLE)
        elif level == OptimizationLevel.SELECTED_INSERTION:
            opts = dict(
                visited_backend=VisitedBackend.HASH_TABLE, selected_insertion=True
            )
        elif level == OptimizationLevel.SELECTED_AND_DELETION:
            opts = dict(
                visited_backend=VisitedBackend.HASH_TABLE,
                selected_insertion=True,
                visited_deletion=True,
            )
        elif level == OptimizationLevel.BLOOM:
            opts = dict(visited_backend=VisitedBackend.BLOOM)
        else:  # CUCKOO
            opts = dict(visited_backend=VisitedBackend.CUCKOO)
        opts.update(kwargs)
        return cls(**opts)

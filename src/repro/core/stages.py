"""The meter interface between the search algorithm and a machine model.

The decoupled searcher (:mod:`repro.core.song`) is *functional*: it returns
real neighbors.  How long the search would take on some machine is decided
by a meter object observing the algorithm's primitive events.  Three meters
exist:

- :class:`NullMeter` — no accounting (pure algorithm).
- :class:`CountingMeter` — fills an :class:`~repro.distances.OpCounter`
  (used for CPU work-unit timing of HNSW-style searches).
- ``WarpMeter`` (in :mod:`repro.core.gpu_kernel`) — maps each event onto
  SIMT warp primitives.  It is never attached to a running search:
  ``meter_lane`` feeds it a lane's finished operation record
  (:class:`~repro.core.song.SearchStats`) to produce GPU cycle estimates.

Stage names follow the paper: ``locate`` (candidate locating), ``distance``
(bulk distance computation), ``maintain`` (data-structure maintenance).
"""

from __future__ import annotations

from repro.distances import OpCounter
from repro.simt.profiler import STAGE_DISTANCE, STAGE_LOCATE, STAGE_MAINTAIN

__all__ = [
    "NullMeter",
    "CountingMeter",
    "STAGE_LOCATE",
    "STAGE_DISTANCE",
    "STAGE_MAINTAIN",
]


class NullMeter:
    """A meter that ignores every event."""

    def stage(self, name: str) -> None:
        """Attribute subsequent events to stage ``name``."""

    def pop_frontier(self, n: int = 1) -> None:
        """``n`` pop-min operations on the frontier queue."""

    def push_frontier(self, n: int = 1) -> None:
        """``n`` bounded pushes into the frontier queue."""

    def read_graph_row(self, degree_slots: int) -> None:
        """Fetch one fixed-degree adjacency row (``degree_slots`` int32)."""

    def visited_test(self, n: int = 1) -> None:
        """``n`` membership probes of the visited set."""

    def visited_insert(self, n: int = 1) -> None:
        """``n`` insertions into the visited set."""

    def visited_delete(self, n: int = 1) -> None:
        """``n`` deletions from the visited set."""

    def bulk_distance(self, num_candidates: int, dim: int) -> None:
        """Distance of ``num_candidates`` vectors against the query."""

    def topk_update(self, n: int = 1) -> None:
        """``n`` bounded pushes into the result heap."""


class CountingMeter(NullMeter):
    """Fills an :class:`OpCounter`; used for CPU work-unit accounting."""

    def __init__(self, counter: OpCounter, dim: int, flops_per_distance: int):
        self.counter = counter
        self.dim = dim
        self.flops_per_distance = flops_per_distance

    def pop_frontier(self, n: int = 1) -> None:
        self.counter.queue_ops += n
        self.counter.hops += n

    def push_frontier(self, n: int = 1) -> None:
        self.counter.queue_ops += n

    def read_graph_row(self, degree_slots: int) -> None:
        self.counter.graph_reads += degree_slots

    def visited_test(self, n: int = 1) -> None:
        self.counter.hash_ops += n

    def visited_insert(self, n: int = 1) -> None:
        self.counter.hash_ops += n

    def visited_delete(self, n: int = 1) -> None:
        self.counter.hash_ops += n

    def bulk_distance(self, num_candidates: int, dim: int) -> None:
        self.counter.distance_calls += num_candidates
        self.counter.distance_flops += num_candidates * self.flops_per_distance
        self.counter.vector_reads += num_candidates

    def topk_update(self, n: int = 1) -> None:
        self.counter.queue_ops += n

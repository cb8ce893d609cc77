"""Memory-hierarchy modelling for the SIMT simulator.

Three concerns live here:

* **Traffic accounting** (:data:`COALESCED_TRANSACTION_BYTES`,
  :data:`SCATTERED_SECTOR_BYTES`): how many bytes move through global
  memory, and whether accesses coalesce.  A warp reading 32 consecutive
  4-byte words produces one 128-byte transaction; 32 scattered words
  produce 32 transactions of a 32-byte sector each — an 8× waste that
  the cost model charges for (:mod:`repro.simt.cost`).

* **Shared-memory budgeting** (:class:`SharedMemoryBudget`): SONG keeps the
  query vector, candidate/dist arrays, both priority queues and (with the
  memory optimizations) the visited table in the SM's shared memory.  The
  bytes a query needs determine how many warps fit on an SM — occupancy —
  and overflowing the per-SM capacity forces structures into global memory.

* **Global-memory capacity** (:class:`CapacityLedger`): what is allowed to
  be *resident* on the device at all.  Every index declares its footprint
  through a named reservation; exceeding the device budget raises
  :class:`DeviceMemoryExceeded` unless the caller explicitly opts into
  oversubscription (used by reference runs that pretend the card is
  bigger).  The out-of-core tier leans on this: shrink
  ``DeviceSpec.memory_budget_gb`` and only the compressed store fits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict

from repro.simt.device import DeviceSpec

class DeviceMemoryExceeded(RuntimeError):
    """A resident-memory reservation overflowed the device budget."""


@dataclass
class CapacityLedger:
    """Named reservations against a device's global-memory budget.

    The ledger is bookkeeping, not allocation: indices *declare* what
    they keep resident (graph rows, vectors, compressed codes, cache
    pages) and the ledger enforces the sum against
    :attr:`DeviceSpec.memory_bytes`.  Reservations are keyed so a
    component can re-declare (page cache resizes) or release.
    """

    device: DeviceSpec
    reservations: Dict[str, int] = field(default_factory=dict)

    @property
    def budget_bytes(self) -> int:
        return self.device.memory_bytes

    @property
    def reserved_bytes(self) -> int:
        return sum(self.reservations.values())

    @property
    def headroom_bytes(self) -> int:
        return self.budget_bytes - self.reserved_bytes

    def reserve(
        self, name: str, num_bytes: int, allow_oversubscription: bool = False
    ) -> int:
        """Declare ``num_bytes`` resident under ``name``.

        Re-reserving a name replaces its previous figure.  On overflow
        the reservation is still recorded (so reports show the true
        demand) but :class:`DeviceMemoryExceeded` is raised — or, with
        ``allow_oversubscription=True``, a :class:`ResourceWarning` is
        emitted instead.  Oversubscription exists for *reference* runs
        (e.g. pricing a full-precision baseline the card could not
        actually hold); production paths should never pass it.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        self.reservations[name] = int(num_bytes)
        overflow = self.reserved_bytes - self.budget_bytes
        if overflow > 0:
            msg = (
                f"device {self.device.name!r} over budget by {overflow} bytes: "
                f"{self.reserved_bytes} reserved vs {self.budget_bytes} "
                f"available ({dict(self.reservations)})"
            )
            if not allow_oversubscription:
                del self.reservations[name]
                raise DeviceMemoryExceeded(msg)
            warnings.warn(msg, ResourceWarning, stacklevel=2)
        return self.headroom_bytes


#: Bytes served per coalesced transaction (cache line).
COALESCED_TRANSACTION_BYTES = 128
#: Bytes wasted per scattered 4-byte access (one 32-byte sector).
SCATTERED_SECTOR_BYTES = 32


@dataclass
class SharedMemoryBudget:
    """Per-query shared-memory plan for the SONG kernel.

    Every size is in bytes.  ``fits(limit)`` says whether the plan fits a
    per-SM allocation; the pricer uses the total to compute
    occupancy, and the searcher marks structures that overflow as living
    in global memory (slower sequential ops).
    """

    query_vector: int = 0
    candidate_buffer: int = 0
    dist_buffer: int = 0
    frontier_queue: int = 0
    topk_queue: int = 0
    visited_table: int = 0

    @property
    def total(self) -> int:
        return (
            self.query_vector
            + self.candidate_buffer
            + self.dist_buffer
            + self.frontier_queue
            + self.topk_queue
            + self.visited_table
        )

    @classmethod
    def for_search(
        cls,
        dim: int,
        degree: int,
        queue_capacity: int,
        topk: int,
        visited_bytes: int,
        multi_query: int = 1,
    ) -> "SharedMemoryBudget":
        """Budget for one warp processing ``multi_query`` queries.

        A queue slot is 8 bytes (float32 distance + int32 id).
        """
        return cls(
            query_vector=4 * dim * multi_query,
            candidate_buffer=4 * degree * multi_query,
            dist_buffer=4 * degree * multi_query,
            frontier_queue=8 * queue_capacity * multi_query,
            topk_queue=8 * topk * multi_query,
            visited_table=visited_bytes * multi_query,
        )

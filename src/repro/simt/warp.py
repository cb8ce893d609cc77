"""Warp-level execution accounting.

A :class:`Warp` is the unit the SONG kernel is metered in: one warp (32
lanes) serves one query (or several, with multi-query).  The kernel code
calls the primitives below instead of doing raw arithmetic on counters, so
the mapping from algorithm step to hardware cost is explicit and auditable:

``simd_compute``      lock-step arithmetic across active lanes
``warp_reduce``       ``shfl_down`` tree reduction (log2(32) = 5 steps)
``global_read_*``     global-memory traffic (coalesced or scattered)
``shared_access``     shared-memory traffic
``sequential``        single-lane work — the other 31 lanes idle, which is
                      exactly the warp-divergence cost the paper's
                      maintenance stage pays
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.simt.device import DeviceSpec
from repro.simt.memory import MemorySpace


@dataclass
class Warp:
    """Cycle and traffic meter for one warp's execution."""

    device: DeviceSpec
    cycles: float = 0.0
    memory: MemorySpace = field(default_factory=MemorySpace)
    #: Cycles attributed per named stage (profiling support).
    stage_cycles: dict = field(default_factory=dict)
    _stage: str = "other"

    # -- stage bookkeeping -------------------------------------------------

    def set_stage(self, stage: str) -> None:
        """Attribute subsequent cycles to ``stage``."""
        self._stage = stage

    def _charge(self, cycles: float) -> None:
        self.cycles += cycles
        self.stage_cycles[self._stage] = self.stage_cycles.get(self._stage, 0.0) + cycles

    # -- primitives ----------------------------------------------------------

    def simd_compute(self, total_ops: int, active_lanes: int = None) -> None:
        """Arithmetic spread across ``active_lanes`` lanes in lock-step.

        ``total_ops`` scalar operations complete in
        ``ceil(total_ops / active_lanes)`` cycles; inactive lanes are the
        divergence waste (they still occupy the issue slot).
        """
        if total_ops <= 0:
            return
        lanes = self.device.warp_size if active_lanes is None else active_lanes
        lanes = max(1, min(lanes, self.device.warp_size))
        self._charge(math.ceil(total_ops / lanes))

    def warp_reduce(self, count: int = 1) -> None:
        """``shfl_down`` tree reduction over the warp: log2(32) steps each."""
        if count <= 0:
            return
        steps = int(math.log2(self.device.warp_size))
        self._charge(count * steps)

    def global_read_coalesced(self, num_bytes: int, count: int = 1) -> None:
        """``count`` warp-wide reads of ``num_bytes`` consecutive addresses.

        Latency per transaction is charged at a small overlapped fraction:
        with enough resident warps the scheduler hides most of it, and the
        bandwidth term of the cost model captures the rest.
        """
        transactions = self.memory.read_coalesced(num_bytes, count)
        self._charge(transactions * self._overlapped_latency())

    def global_read_scattered(self, num_accesses: int) -> None:
        """Independent 4-byte reads from arbitrary addresses (no coalescing)."""
        transactions = self.memory.read_scattered(num_accesses)
        self._charge(transactions * self._overlapped_latency())

    def shared_access(self, num_accesses: int = 1) -> None:
        """Shared-memory access: ~1 cycle when bank-conflict free."""
        if num_accesses <= 0:
            return
        self.memory.access_shared(num_accesses)
        self._charge(num_accesses)

    def sequential(self, num_ops: int, in_shared: bool = True) -> None:
        """Single-lane data-structure work; 31 lanes idle.

        ``in_shared=False`` marks a structure that spilled to global
        memory: each op then pays an uncovered memory round-trip, which is
        how the simulator reproduces the paper's "hashtable-sel runs out
        of memory and collapses" behaviour.
        """
        if num_ops <= 0:
            return
        per_op = self.device.seq_op_cycles
        if not in_shared:
            per_op += self._overlapped_latency(spilled=True)
            self.memory.read_scattered(num_ops)
        self._charge(num_ops * per_op)

    # -- aggregation ----------------------------------------------------------

    # -- internals ------------------------------------------------------------

    def _overlapped_latency(self, spilled: bool = False) -> float:
        """Effective cycles per global transaction after latency hiding.

        Streaming (coalesced/candidate) reads overlap deeply across the
        resident warps; a spilled data structure's dependent accesses
        (probe chains, heap sifts) cannot be prefetched and hide far less.
        """
        hide = 16.0 if not spilled else 4.0
        return self.device.global_latency_cycles / hide

"""What an operation costs the device, and what a launch costs in seconds.

:class:`CostModel` holds both halves of the analytic model.  Its
per-event charges (:meth:`~CostModel.coalesced_read`,
:meth:`~CostModel.scattered_read`, :meth:`~CostModel.simd`,
:meth:`~CostModel.reduce`, :meth:`~CostModel.sequential`) give the cycles
of one kind of warp work; each is linear in its count and takes integer
arrays as well as scalars, so a batch of lanes is priced as column
arithmetic (:func:`repro.core.gpu_kernel.price_block`):

``simd``             lock-step arithmetic across active lanes
``reduce``           ``shfl_down`` tree reduction (log2(32) = 5 steps)
``*_read``           global-memory traffic (coalesced or scattered)
``sequential``       single-lane work — the other 31 lanes idle, which is
                     exactly the warp-divergence cost the paper's
                     maintenance stage pays

Shared-memory accesses cost one cycle each (bank-conflict free).  The
launch half turns per-warp cycle counts and global traffic into a kernel
time with a roofline-style model:

* **issue-bound time** — total warp-cycles divided by the device's warp
  issue throughput, scaled down when too few warps are resident to fill
  the machine (small batches, low occupancy);
* **bandwidth-bound time** — total global bytes divided by bandwidth;
* **critical-path time** — the longest single warp can never be beaten.

Kernel time is the maximum of the three; PCIe transfers are added by the
profiler around the kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.simt.device import DeviceSpec
from repro.simt.memory import COALESCED_TRANSACTION_BYTES


def transactions(num_bytes):
    """Coalesced transactions one warp-wide read of ``num_bytes``
    consecutive bytes takes: separate reads do not share a cache line,
    so each rounds up on its own."""
    return -(-num_bytes // COALESCED_TRANSACTION_BYTES)


@dataclass
class KernelResult:
    """Outcome of one simulated kernel launch.

    Attributes
    ----------
    outputs:
        Per-query results, when the launch searched.
    kernel_seconds:
        Estimated kernel execution time.
    htod_seconds / dtoh_seconds:
        PCIe transfer times around the kernel.
    stage_cycles:
        Cycles per named stage summed over all warps.
    total_global_bytes:
        Global-memory traffic of the whole launch.
    occupancy_warps_per_sm:
        Resident warps per SM the shared-memory budget allowed.
    """

    outputs: List[object]
    kernel_seconds: float
    htod_seconds: float
    dtoh_seconds: float
    stage_cycles: Dict[str, float]
    total_global_bytes: int
    occupancy_warps_per_sm: int
    warp_cycles: List[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return self.htod_seconds + self.kernel_seconds + self.dtoh_seconds

    def qps(self, num_queries: int) -> float:
        """Queries per second implied by the total launch time."""
        if self.total_seconds == 0:
            return float("inf")
        return num_queries / self.total_seconds


@dataclass
class CostModel:
    """Analytic cost model of warp work and kernel launches on ``device``."""

    device: DeviceSpec

    # -- per-event charges (cycles) -------------------------------------

    def latency(self, spilled: bool = False) -> float:
        """Effective cycles per global transaction after latency hiding.

        Streaming (coalesced/candidate) reads overlap deeply across the
        resident warps; a spilled data structure's dependent accesses
        (probe chains, heap sifts) cannot be prefetched and hide far
        less.  The streaming factor is charged whatever the residency.
        """
        hide = 4.0 if spilled else 16.0
        return self.device.global_latency_cycles / hide

    def coalesced_read(self, num_bytes, count=1):
        """``count`` warp-wide reads of ``num_bytes`` consecutive bytes."""
        return count * transactions(num_bytes) * self.latency()

    def scattered_read(self, accesses):
        """Independent 4-byte reads from arbitrary addresses, one
        transaction each (no coalescing)."""
        return accesses * self.latency()

    def simd(self, total_ops, lanes: int = 0):
        """``total_ops`` scalar operations in lock-step over ``lanes``
        active lanes (default: the whole warp); the idle lanes are the
        divergence waste."""
        warp = self.device.warp_size
        lanes = max(1, min(lanes or warp, warp))
        return -(-total_ops // lanes)

    def reduce(self, count=1):
        """``count`` ``shfl_down`` tree reductions over the warp."""
        return count * int(math.log2(self.device.warp_size))

    def sequential(self, ops, in_shared: bool = True):
        """Single-lane data-structure work; 31 lanes idle.

        ``in_shared=False`` marks a structure that spilled to global
        memory: each op then also pays an uncovered memory round-trip
        (a scattered read), which is how the model reproduces the
        paper's "hashtable-sel runs out of memory and collapses".
        """
        per_op = self.device.seq_op_cycles
        if not in_shared:
            per_op += self.latency(spilled=True)
        return ops * per_op

    # -- launches (seconds) ---------------------------------------------

    def occupancy_warps_per_sm(self, shared_bytes_per_warp: int) -> int:
        """Resident warps one SM can hold given each warp's shared usage."""
        limit = self.device.shared_mem_per_sm_kb * 1024
        if shared_bytes_per_warp <= 0:
            return self.device.max_warps_per_sm
        by_shared = limit // shared_bytes_per_warp
        return int(max(1, min(self.device.max_warps_per_sm, by_shared)))

    def kernel_time(
        self,
        warp_cycles: Sequence[float],
        total_global_bytes: int,
        shared_bytes_per_warp: int = 0,
        warps_per_group: int = 1,
    ) -> float:
        """Estimated kernel seconds for a batch of warp groups.

        Parameters
        ----------
        warp_cycles:
            Cycle count of each warp group (one group serves one query —
            a single warp by default, a multi-warp block when the search
            uses ``block_size > 32``).
        total_global_bytes:
            Global-memory traffic summed over all groups.
        shared_bytes_per_warp:
            Shared-memory footprint per group (occupancy input).
        warps_per_group:
            Warps a group occupies; larger groups reduce how many groups
            an SM can host.
        """
        if not len(warp_cycles):
            return 0.0
        return self._kernel_time(
            num_groups=len(warp_cycles),
            total_cycles=float(sum(warp_cycles)),
            longest=float(max(warp_cycles)),
            total_global_bytes=total_global_bytes,
            shared_bytes_per_warp=shared_bytes_per_warp,
            warps_per_group=warps_per_group,
        )

    def kernel_time_uniform(
        self,
        per_warp_cycles: float,
        num_warps: int,
        total_global_bytes: int,
        shared_bytes_per_warp: int = 0,
        warps_per_group: int = 1,
    ) -> float:
        """:meth:`kernel_time` for ``num_warps`` identical warp groups.

        Construction kernels launch one warp per row/pair tile, so the
        per-group cycle counts are uniform by design; this avoids
        materializing a million-entry cycle list just to sum it.
        """
        if num_warps <= 0 or per_warp_cycles <= 0:
            return 0.0
        return self._kernel_time(
            num_groups=num_warps,
            total_cycles=per_warp_cycles * num_warps,
            longest=per_warp_cycles,
            total_global_bytes=total_global_bytes,
            shared_bytes_per_warp=shared_bytes_per_warp,
            warps_per_group=warps_per_group,
        )

    def _kernel_time(
        self,
        num_groups: int,
        total_cycles: float,
        longest: float,
        total_global_bytes: int,
        shared_bytes_per_warp: int,
        warps_per_group: int,
    ) -> float:
        if warps_per_group <= 0:
            raise ValueError("warps_per_group must be positive")
        device = self.device
        by_shared = self.occupancy_warps_per_sm(shared_bytes_per_warp)
        groups_per_sm = max(
            1, min(device.max_warps_per_sm // warps_per_group, by_shared)
        )
        resident = min(num_groups, device.num_sms * groups_per_sm)
        # Issue throughput scales with how much of the machine the resident
        # groups can feed (each SM issues warp_slots_per_sm instructions/cycle).
        issue_slots = min(
            device.num_sms * device.warp_slots_per_sm,
            max(1, resident),
        )
        issue_time = total_cycles / issue_slots / device.clock_hz
        bandwidth_time = total_global_bytes / (device.global_bandwidth_gbs * 1e9)
        critical_path = longest / device.clock_hz
        return max(issue_time, bandwidth_time, critical_path)

    def transfer_time(self, num_bytes: int) -> float:
        """PCIe host↔device transfer seconds (latency + bandwidth)."""
        if num_bytes <= 0:
            return 0.0
        device = self.device
        return device.pcie_latency_us * 1e-6 + num_bytes / (
            device.pcie_bandwidth_gbs * 1e9
        )

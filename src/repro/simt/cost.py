"""Kernel-time estimation from warp meters.

The launcher aggregates per-warp cycle counts and global-memory traffic;
this module turns them into a kernel time using a roofline-style model:

* **issue-bound time** — total warp-cycles divided by the device's warp
  issue throughput, scaled down when too few warps are resident to fill
  the machine (small batches, low occupancy);
* **bandwidth-bound time** — total global bytes divided by bandwidth;
* **critical-path time** — the longest single warp can never be beaten.

Kernel time is the maximum of the three; PCIe transfers are added by the
profiler around the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.simt.device import DeviceSpec


@dataclass
class CostModel:
    """Analytic timing model for one kernel launch on ``device``."""

    device: DeviceSpec

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

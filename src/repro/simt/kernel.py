"""Kernel launching: batch scheduling, occupancy and timing.

A "kernel" here is any callable that, given a query index and a fresh
:class:`~repro.simt.warp.Warp`, performs the search functionally and
meters its work on the warp.  The launcher runs it for every query in the
batch, then folds the warp meters through the cost model into kernel time
and a stage profile.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.simt.cost import CostModel
from repro.simt.device import DeviceSpec
from repro.simt.profiler import StageProfiler
from repro.simt.warp import Warp


@dataclass
class KernelResult:
    """Outcome of one simulated kernel launch.

    Attributes
    ----------
    outputs:
        Per-query return values of the kernel function.
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


class KernelLauncher:
    """Runs a metered kernel over a query batch on a simulated device."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.cost_model = CostModel(device)

    def launch(
        self,
        kernel: Callable[[int, Warp], object],
        num_queries: int,
        htod_bytes: int = 0,
        dtoh_bytes: int = 0,
        shared_bytes_per_warp: int = 0,
        queries_per_warp: int = 1,
        warps_per_query: int = 1,
        profiler: StageProfiler = None,
    ) -> KernelResult:
        """Execute ``kernel`` for each query and estimate launch timing.

        Parameters
        ----------
        kernel:
            ``kernel(query_index, warp) -> output``.  With multi-query
            (``queries_per_warp > 1``) consecutive queries share a warp,
            and the kernel is still called once per query — the shared
            warp meter serializes their candidate-locating work exactly
            as the paper describes.
        num_queries:
            Batch size.
        htod_bytes / dtoh_bytes:
            Transfer sizes (query upload, result download).
        shared_bytes_per_warp:
            Shared-memory footprint for occupancy.
        """
        if num_queries <= 0:
            raise ValueError("num_queries must be positive")
        if queries_per_warp <= 0:
            raise ValueError("queries_per_warp must be positive")

        outputs: List[object] = []
        warp_cycles: List[float] = []
        stage_cycles: Dict[str, float] = {}
        total_bytes = 0

        warp: Warp = None
        for q in range(num_queries):
            if q % queries_per_warp == 0:
                if warp is not None:
                    warp_cycles.append(warp.cycles)
                    total_bytes += warp.memory.total_global_bytes
                    for s, c in warp.stage_cycles.items():
                        stage_cycles[s] = stage_cycles.get(s, 0.0) + c
                warp = Warp(self.device)
            outputs.append(kernel(q, warp))
        if warp is not None:
            warp_cycles.append(warp.cycles)
            total_bytes += warp.memory.total_global_bytes
            for s, c in warp.stage_cycles.items():
                stage_cycles[s] = stage_cycles.get(s, 0.0) + c

        kernel_seconds = self.cost_model.kernel_time(
            warp_cycles,
            total_bytes,
            shared_bytes_per_warp,
            warps_per_group=warps_per_query,
        )
        htod = self.cost_model.transfer_time(htod_bytes)
        dtoh = self.cost_model.transfer_time(dtoh_bytes)
        occupancy = self.cost_model.occupancy_warps_per_sm(shared_bytes_per_warp)

        if profiler is not None:
            profiler.add_transfer(htod=htod, dtoh=dtoh)
            profiler.add_kernel(kernel_seconds)
            profiler.add_stage_cycles(stage_cycles)

        return KernelResult(
            outputs=outputs,
            kernel_seconds=kernel_seconds,
            htod_seconds=htod,
            dtoh_seconds=dtoh,
            stage_cycles=stage_cycles,
            total_global_bytes=total_bytes,
            occupancy_warps_per_sm=occupancy,
            warp_cycles=warp_cycles,
        )

"""SIMT execution simulator — the GPU substrate of this reproduction.

The paper runs CUDA kernels on NVIDIA V100/P40/TITAN X hardware.  This
environment has none, so SONG's kernel is executed *functionally* in
Python and priced afterwards by a warp-level cost model that charges
every abstract operation the paper reasons about: lock-step 32-lane compute, coalesced vs. scattered
global-memory transactions, single-lane sequential data-structure
maintenance, shared-memory occupancy limits, and PCIe transfers.

- :class:`~repro.simt.device.DeviceSpec` — hardware parameters, with
  V100 / P40 / TITAN X presets.
- :class:`~repro.simt.cost.CostModel` — the per-event charges (cycles of
  one kind of warp work, on scalars or integer arrays) and the
  roofline that turns warp cycles, traffic and occupancy into kernel
  seconds; :class:`~repro.simt.cost.KernelResult` is one launch's
  outcome.  :func:`repro.core.gpu_kernel.price_block` prices a batch of
  search lanes with it.
- :class:`~repro.simt.profiler.StageProfiler` — HtoD / kernel / DtoH and
  per-stage (locate / distance / maintain) breakdowns.

Every search, build, serve and tier path prices work with this analytic
model.  Its constants (transactions per read, ``shfl_down`` steps,
``seq_op_cycles``, the latency-overlap factor) were measured once on an
instruction-level simulator, since deleted;
``benchmarks/results/simt_ratios.txt`` keeps those measurements and
``tests/test_simt_calibration.py`` holds the model to them.
"""

from repro.simt.device import DEVICE_PRESETS, DeviceSpec, get_device
from repro.simt.memory import SharedMemoryBudget
from repro.simt.cost import CostModel, KernelResult
from repro.simt.build_cost import BuildCostRecorder, BuildPhaseCost
from repro.simt.profiler import StageProfiler
from repro.simt.streams import (
    BatchSchedule,
    ChunkWork,
    DeviceTimeline,
    StreamScheduler,
)

__all__ = [
    "BatchSchedule",
    "ChunkWork",
    "DeviceTimeline",
    "StreamScheduler",
    "DeviceSpec",
    "DEVICE_PRESETS",
    "get_device",
    "SharedMemoryBudget",
    "KernelResult",
    "CostModel",
    "BuildCostRecorder",
    "BuildPhaseCost",
    "StageProfiler",
]

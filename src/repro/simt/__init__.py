"""SIMT execution simulator — the GPU substrate of this reproduction.

The paper runs CUDA kernels on NVIDIA V100/P40/TITAN X hardware.  This
environment has none, so SONG's kernel is executed *functionally* in
Python while a warp-level cost model meters every abstract operation the
paper reasons about: lock-step 32-lane compute, coalesced vs. scattered
global-memory transactions, single-lane sequential data-structure
maintenance, shared-memory occupancy limits, and PCIe transfers.

- :class:`~repro.simt.device.DeviceSpec` — hardware parameters, with
  V100 / P40 / TITAN X presets.
- :class:`~repro.simt.warp.Warp` — per-warp cycle and byte accounting.
- :class:`~repro.simt.kernel.KernelLauncher` — block scheduling, occupancy
  and kernel-time estimation.
- :class:`~repro.simt.profiler.StageProfiler` — HtoD / kernel / DtoH and
  per-stage (locate / distance / maintain) breakdowns.

Every search, build, serve and tier path prices work with this analytic
model.  Its constants (transactions per read, ``shfl_down`` steps,
``seq_op_cycles``, the latency-overlap factor) were measured on the
instruction-level simulator (:mod:`repro.simt.simulator` running the
:mod:`repro.simt.kernels` microkernels, written in :mod:`repro.simt.isa`),
which only its tests run and which this package does not import;
``benchmarks/results/simt_ratios.txt`` keeps those measurements and
``tests/test_simt_calibration.py`` holds the model to them.
"""

from repro.simt.device import DEVICE_PRESETS, DeviceSpec, get_device
from repro.simt.memory import MemorySpace, SharedMemoryBudget
from repro.simt.warp import Warp
from repro.simt.kernel import KernelLauncher, KernelResult
from repro.simt.cost import CostModel
from repro.simt.build_cost import BuildCostRecorder, BuildPhaseCost
from repro.simt.profiler import StageProfiler
from repro.simt.streams import (
    BatchSchedule,
    ChunkWork,
    DeviceTimeline,
    StreamOp,
    StreamScheduler,
    StreamTimeline,
)

__all__ = [
    "BatchSchedule",
    "ChunkWork",
    "DeviceTimeline",
    "StreamOp",
    "StreamScheduler",
    "StreamTimeline",
    "DeviceSpec",
    "DEVICE_PRESETS",
    "get_device",
    "MemorySpace",
    "SharedMemoryBudget",
    "Warp",
    "KernelLauncher",
    "KernelResult",
    "CostModel",
    "BuildCostRecorder",
    "BuildPhaseCost",
    "StageProfiler",
]

"""GPU hardware parameters.

Presets correspond to the three cards of the paper's Fig. 13.  Numbers are
public datasheet values; the cost model only ever uses them in ratios, so
the reproduction depends on their relative ordering rather than absolute
precision.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a CUDA-style device.

    Attributes
    ----------
    name:
        Marketing name.
    num_sms:
        Streaming multiprocessors.
    cores_per_sm:
        FP32 lanes per SM.
    clock_ghz:
        Sustained SM clock.
    global_bandwidth_gbs:
        Global-memory bandwidth (GB/s).
    global_memory_gb:
        Global-memory capacity.
    shared_mem_per_sm_kb:
        Shared-memory/L1 capacity per SM (the configurable pool).
    max_warps_per_sm:
        Hardware resident-warp ceiling per SM.
    warp_size:
        Threads per warp (32 on every NVIDIA part).
    pcie_bandwidth_gbs:
        Host↔device transfer bandwidth.
    pcie_latency_us:
        Fixed per-transfer launch latency.
    seq_op_cycles:
        Cycles charged per sequential (single-lane) data-structure
        operation — heap sift step, hash probe, etc.
    global_latency_cycles:
        Latency of an uncovered global-memory transaction.
    memory_budget_gb:
        Optional cap on the bytes an index may declare device-resident.
        ``None`` means the full ``global_memory_gb`` is available; the
        out-of-core tier shrinks it to simulate datasets 10–100× larger
        than the card without materialising them.
    """

    name: str
    num_sms: int
    cores_per_sm: int
    clock_ghz: float
    global_bandwidth_gbs: float
    global_memory_gb: float
    shared_mem_per_sm_kb: int = 96
    max_warps_per_sm: int = 64
    warp_size: int = 32
    pcie_bandwidth_gbs: float = 12.0
    pcie_latency_us: float = 10.0
    seq_op_cycles: int = 20
    global_latency_cycles: int = 400
    memory_budget_gb: Optional[float] = None

    @property
    def memory_gb(self) -> float:
        """Effective capacity: the budget override, else the full card."""
        if self.memory_budget_gb is not None:
            return self.memory_budget_gb
        return self.global_memory_gb

    @property
    def memory_bytes(self) -> int:
        return int(self.memory_gb * 1024**3)

    @property
    def total_cores(self) -> int:
        return self.num_sms * self.cores_per_sm

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    @property
    def warp_slots_per_sm(self) -> int:
        """Warp instructions an SM can issue per cycle."""
        return max(1, self.cores_per_sm // self.warp_size)

    def with_overrides(self, **kwargs) -> "DeviceSpec":
        """A copy with selected fields replaced (for ablations)."""
        return replace(self, **kwargs)


#: The three GPUs of the paper's Fig. 13.
DEVICE_PRESETS: Dict[str, DeviceSpec] = {
    "v100": DeviceSpec(
        name="NVIDIA TESLA V100",
        num_sms=80,
        cores_per_sm=64,
        clock_ghz=1.53,
        global_bandwidth_gbs=900.0,
        global_memory_gb=32.0,
        shared_mem_per_sm_kb=96,
    ),
    "p40": DeviceSpec(
        name="NVIDIA TESLA P40",
        num_sms=30,
        cores_per_sm=128,
        clock_ghz=1.53,
        global_bandwidth_gbs=346.0,
        global_memory_gb=24.0,
        shared_mem_per_sm_kb=64,
    ),
    "titanx": DeviceSpec(
        name="NVIDIA TITAN X (Pascal)",
        num_sms=28,
        cores_per_sm=128,
        clock_ghz=1.42,
        global_bandwidth_gbs=480.0,
        global_memory_gb=12.0,
        shared_mem_per_sm_kb=64,
    ),
}


def get_device(name: str = "v100") -> DeviceSpec:
    """Look up a preset by key (``v100``, ``p40``, ``titanx``)."""
    if isinstance(name, DeviceSpec):
        return name
    key = name.lower().replace(" ", "").replace("_", "")
    if key not in DEVICE_PRESETS:
        raise KeyError(
            f"unknown device {name!r}; presets: {sorted(DEVICE_PRESETS)}"
        )
    return DEVICE_PRESETS[key]

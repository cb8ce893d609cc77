"""Stage-level profiling (paper Fig. 10).

Two breakdowns are reported:

* transfer vs. kernel: HtoD (queries in), kernel execution, DtoH
  (results out);
* inside the kernel: candidate locating / bulk distance computation /
  data-structure maintenance cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Canonical stage names used by the kernel.
STAGE_LOCATE = "locate"
STAGE_DISTANCE = "distance"
STAGE_MAINTAIN = "maintain"
KERNEL_STAGES = (STAGE_LOCATE, STAGE_DISTANCE, STAGE_MAINTAIN)


@dataclass
class StageProfiler:
    """Accumulates transfer seconds and per-stage kernel cycles."""

    htod_seconds: float = 0.0
    dtoh_seconds: float = 0.0
    kernel_seconds: float = 0.0
    stage_cycles: Dict[str, float] = field(default_factory=dict)

    def add_transfer(self, htod: float = 0.0, dtoh: float = 0.0) -> None:
        self.htod_seconds += htod
        self.dtoh_seconds += dtoh

    def add_kernel(self, seconds: float) -> None:
        self.kernel_seconds += seconds

    def add_stage_cycles(self, cycles: Dict[str, float]) -> None:
        for stage, c in cycles.items():
            self.stage_cycles[stage] = self.stage_cycles.get(stage, 0.0) + c

    # -- reports ----------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return self.htod_seconds + self.kernel_seconds + self.dtoh_seconds

    def transfer_breakdown(self) -> Dict[str, float]:
        """Fractions of total time: HtoD / Kernel / DtoH (sums to 1)."""
        total = self.total_seconds
        if total == 0:
            return {"HtoD": 0.0, "Kernel": 0.0, "DtoH": 0.0}
        return {
            "HtoD": self.htod_seconds / total,
            "Kernel": self.kernel_seconds / total,
            "DtoH": self.dtoh_seconds / total,
        }

    def kernel_breakdown(self) -> Dict[str, float]:
        """Fractions of kernel cycles per stage (sums to 1)."""
        known = {s: self.stage_cycles.get(s, 0.0) for s in KERNEL_STAGES}
        total = sum(self.stage_cycles.values())
        if total == 0:
            return {s: 0.0 for s in KERNEL_STAGES}
        return {s: c / total for s, c in known.items()}

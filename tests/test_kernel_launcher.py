"""Kernel launcher and stage profiler tests."""

import pytest

from repro.simt.device import get_device
from repro.simt.kernel import KernelLauncher
from repro.simt.profiler import StageProfiler
from repro.simt.warp import Warp


def _toy_kernel(q_index: int, warp: Warp):
    warp.set_stage("locate")
    warp.sequential(4)
    warp.set_stage("distance")
    warp.simd_compute(320)
    warp.global_read_coalesced(512)
    warp.set_stage("maintain")
    warp.sequential(8)
    return q_index * 2


class TestLauncher:
    def test_outputs_in_order(self):
        launcher = KernelLauncher(get_device("v100"))
        res = launcher.launch(_toy_kernel, num_queries=10)
        assert res.outputs == [q * 2 for q in range(10)]

    def test_timing_positive(self):
        launcher = KernelLauncher(get_device("v100"))
        res = launcher.launch(_toy_kernel, num_queries=10, htod_bytes=4096, dtoh_bytes=256)
        assert res.kernel_seconds > 0
        assert res.htod_seconds > 0
        assert res.dtoh_seconds > 0
        assert res.total_seconds == pytest.approx(
            res.kernel_seconds + res.htod_seconds + res.dtoh_seconds
        )

    def test_qps(self):
        launcher = KernelLauncher(get_device("v100"))
        res = launcher.launch(_toy_kernel, num_queries=100)
        assert res.qps(100) == pytest.approx(100 / res.total_seconds)

    def test_stage_cycles_collected(self):
        launcher = KernelLauncher(get_device("v100"))
        res = launcher.launch(_toy_kernel, num_queries=4)
        assert set(res.stage_cycles) == {"locate", "distance", "maintain"}

    def test_global_bytes_accumulated(self):
        launcher = KernelLauncher(get_device("v100"))
        res = launcher.launch(_toy_kernel, num_queries=4)
        assert res.total_global_bytes == 4 * 512

    def test_multi_query_groups_warps(self):
        launcher = KernelLauncher(get_device("v100"))
        r1 = launcher.launch(_toy_kernel, num_queries=8, queries_per_warp=1)
        r2 = launcher.launch(_toy_kernel, num_queries=8, queries_per_warp=4)
        # Same total work, but r2 has 2 warps instead of 8.
        assert sum(r1.stage_cycles.values()) == pytest.approx(
            sum(r2.stage_cycles.values())
        )

    def test_invalid_args(self):
        launcher = KernelLauncher(get_device("v100"))
        with pytest.raises(ValueError):
            launcher.launch(_toy_kernel, num_queries=0)
        with pytest.raises(ValueError):
            launcher.launch(_toy_kernel, num_queries=4, queries_per_warp=0)

    def test_occupancy_reported(self):
        launcher = KernelLauncher(get_device("v100"))
        res = launcher.launch(
            _toy_kernel, num_queries=4, shared_bytes_per_warp=24 * 1024
        )
        assert res.occupancy_warps_per_sm == 4

    def test_bigger_batches_amortize_transfer(self):
        launcher = KernelLauncher(get_device("v100"))
        small = launcher.launch(_toy_kernel, num_queries=10, htod_bytes=10 * 512)
        big = launcher.launch(_toy_kernel, num_queries=1000, htod_bytes=1000 * 512)
        assert big.qps(1000) > small.qps(10)


class TestProfiler:
    def test_breakdowns_sum_to_one(self):
        launcher = KernelLauncher(get_device("v100"))
        prof = StageProfiler()
        launcher.launch(
            _toy_kernel, num_queries=6, htod_bytes=1024, dtoh_bytes=128, profiler=prof
        )
        tb = prof.transfer_breakdown()
        assert sum(tb.values()) == pytest.approx(1.0)
        kb = prof.kernel_breakdown()
        assert sum(kb.values()) == pytest.approx(1.0)

    def test_empty_profiler_safe(self):
        prof = StageProfiler()
        assert prof.transfer_breakdown() == {"HtoD": 0.0, "Kernel": 0.0, "DtoH": 0.0}
        assert sum(prof.kernel_breakdown().values()) == 0.0

    def test_accumulates_over_launches(self):
        launcher = KernelLauncher(get_device("v100"))
        prof = StageProfiler()
        launcher.launch(_toy_kernel, num_queries=3, profiler=prof)
        first = prof.kernel_seconds
        launcher.launch(_toy_kernel, num_queries=3, profiler=prof)
        assert prof.kernel_seconds == pytest.approx(2 * first)

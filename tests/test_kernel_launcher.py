"""Batch pricing and stage profiler tests.

:func:`repro.core.gpu_kernel.price_block` prices a batch of lanes'
record counts as one kernel launch: warps, bytes, occupancy, transfers.
"""

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import (
    RECORD_COLUMNS,
    DistanceProfile,
    Placement,
    price_block,
)
from repro.simt.device import get_device
from repro.simt.profiler import StageProfiler

#: One plausible search lane's counts.
LANE = dict(
    iterations=4, distance_computations=40, visited_peak=41, visited_inserts=40,
    searches=1, frontier_pops=5, rows_fetched=4, visited_tests=64,
    visited_deletes=0, topk_updates=12, frontier_pushes=21,
)
PROFILE = DistanceProfile.for_metric("l2", 128)


def _block(num_lanes, **override):
    row = [override.get(name, LANE[name]) for name in RECORD_COLUMNS]
    return np.array([row] * num_lanes, dtype=np.int64)


def _launch(block, multi_query=1, shared_bytes_per_warp=0, profiler=None):
    placement = Placement(True, True, True, shared_bytes_per_warp)
    config = SearchConfig(k=10, queue_size=32, multi_query=multi_query)
    return price_block(
        block, config, placement, PROFILE, 16, get_device("v100"), profiler
    )


class TestLauncher:
    def test_outputs_in_order(self):
        """Warp cycles follow the block's row order."""
        block = np.concatenate([_block(1, distance_computations=d) for d in (10, 40, 80)])
        forward = _launch(block).warp_cycles
        assert forward == sorted(forward)
        assert _launch(block[::-1]).warp_cycles == forward[::-1]

    def test_timing_positive(self):
        res = _launch(_block(10))
        assert res.kernel_seconds > 0
        assert res.htod_seconds > 0
        assert res.dtoh_seconds > 0
        assert res.total_seconds == pytest.approx(
            res.kernel_seconds + res.htod_seconds + res.dtoh_seconds
        )

    def test_qps(self):
        res = _launch(_block(100))
        assert res.qps(100) == pytest.approx(100 / res.total_seconds)

    def test_stage_cycles_collected(self):
        res = _launch(_block(4))
        assert set(res.stage_cycles) == {"locate", "distance", "maintain"}
        assert sum(res.stage_cycles.values()) == sum(res.warp_cycles)

    def test_global_bytes_accumulated(self):
        one = _launch(_block(1)).total_global_bytes
        assert one > 0
        assert _launch(_block(4)).total_global_bytes == 4 * one

    def test_multi_query_groups_warps(self):
        """Consecutive lanes share a warp: 8 lanes at multi-query 4 are
        two warps, each the sum of its lanes."""
        block = np.concatenate([_block(1, distance_computations=d) for d in range(8)])
        lanes = [_launch(block[i : i + 1], multi_query=4).warp_cycles[0] for i in range(8)]
        grouped = _launch(block, multi_query=4)
        assert grouped.warp_cycles == [sum(lanes[:4]), sum(lanes[4:])]
        assert sum(grouped.stage_cycles.values()) == sum(lanes)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            _launch(_block(4, frontier_pops=-1))
        with pytest.raises(ValueError):
            _launch(_block(4)[:, :-1])

    def test_occupancy_reported(self):
        res = _launch(_block(4), shared_bytes_per_warp=24 * 1024)
        assert res.occupancy_warps_per_sm == 4

    def test_bigger_batches_amortize_transfer(self):
        assert _launch(_block(1000)).qps(1000) > _launch(_block(10)).qps(10)


class TestProfiler:
    def test_breakdowns_sum_to_one(self):
        prof = StageProfiler()
        _launch(_block(6), profiler=prof)
        tb = prof.transfer_breakdown()
        assert sum(tb.values()) == pytest.approx(1.0)
        kb = prof.kernel_breakdown()
        assert sum(kb.values()) == pytest.approx(1.0)

    def test_empty_profiler_safe(self):
        prof = StageProfiler()
        assert prof.transfer_breakdown() == {"HtoD": 0.0, "Kernel": 0.0, "DtoH": 0.0}
        assert sum(prof.kernel_breakdown().values()) == 0.0

    def test_accumulates_over_launches(self):
        prof = StageProfiler()
        _launch(_block(3), profiler=prof)
        first = prof.kernel_seconds
        _launch(_block(3), profiler=prof)
        assert prof.kernel_seconds == pytest.approx(2 * first)

"""SIMT simulator tests: device specs, memory model, warp, cost model."""

import pytest

from repro.simt.cost import CostModel
from repro.simt.device import DEVICE_PRESETS, get_device
from repro.simt.memory import (
    COALESCED_TRANSACTION_BYTES,
    MemorySpace,
    SharedMemoryBudget,
)
from repro.simt.warp import Warp


class TestDevice:
    def test_presets_exist(self):
        for name in ("v100", "p40", "titanx"):
            dev = get_device(name)
            assert dev.total_cores > 0

    def test_preset_core_counts_match_paper(self):
        assert get_device("v100").total_cores == 5120
        assert get_device("p40").total_cores == 3840
        assert get_device("titanx").total_cores == 3584

    def test_memory_ordering_matches_paper(self):
        v100, p40, titanx = (get_device(n) for n in ("v100", "p40", "titanx"))
        assert v100.global_memory_gb > p40.global_memory_gb > titanx.global_memory_gb

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            get_device("a100x")

    def test_name_normalization(self):
        assert get_device("V100") is DEVICE_PRESETS["v100"]
        assert get_device("TITAN X") is DEVICE_PRESETS["titanx"]

    def test_passthrough_spec(self):
        dev = get_device("p40")
        assert get_device(dev) is dev

    def test_with_overrides(self):
        dev = get_device("v100").with_overrides(num_sms=10)
        assert dev.num_sms == 10
        assert dev.cores_per_sm == 64  # unchanged
        assert get_device("v100").num_sms == 80  # original untouched


class TestMemorySpace:
    def test_coalesced_transactions(self):
        mem = MemorySpace()
        t = mem.read_coalesced(256)
        assert t == 256 // COALESCED_TRANSACTION_BYTES
        assert mem.coalesced_bytes == 256

    def test_scattered_wastes_sectors(self):
        mem = MemorySpace()
        mem.read_scattered(32)
        # 32 scattered 4-byte reads move 32 sectors of 32B = 1 KiB
        assert mem.total_global_bytes == 32 * 32

    def test_scattered_costs_more_than_coalesced(self):
        """The coalescing rule the paper's layout decisions rely on."""
        a, b = MemorySpace(), MemorySpace()
        a.read_coalesced(32 * 4)  # one warp-wide read of 32 words
        b.read_scattered(32)  # same words, scattered
        assert b.total_global_bytes > a.total_global_bytes

    def test_negative_rejected(self):
        mem = MemorySpace()
        with pytest.raises(ValueError):
            mem.read_coalesced(-1)
        with pytest.raises(ValueError):
            mem.read_scattered(-1)


class TestSharedBudget:
    def test_for_search_totals(self):
        b = SharedMemoryBudget.for_search(
            dim=100, degree=16, queue_capacity=50, topk=50, visited_bytes=400
        )
        assert b.query_vector == 400
        assert b.candidate_buffer == 64
        assert b.frontier_queue == 400
        assert b.topk_queue == 400
        assert b.total == 400 + 64 + 64 + 400 + 400 + 400

    def test_multi_query_multiplies(self):
        b1 = SharedMemoryBudget.for_search(64, 16, 50, 50, 100, multi_query=1)
        b2 = SharedMemoryBudget.for_search(64, 16, 50, 50, 100, multi_query=2)
        assert b2.total == 2 * b1.total


class TestWarp:
    def test_simd_compute_divides_by_lanes(self):
        dev = get_device("v100")
        w1, w2 = Warp(dev), Warp(dev)
        w1.simd_compute(320, active_lanes=32)
        w2.simd_compute(320, active_lanes=8)
        assert w1.cycles == 10
        assert w2.cycles == 40

    def test_warp_reduce_log_steps(self):
        w = Warp(get_device("v100"))
        w.warp_reduce(3)
        assert w.cycles == 3 * 5  # log2(32) = 5

    def test_sequential_spill_costs_more(self):
        dev = get_device("v100")
        shared, spilled = Warp(dev), Warp(dev)
        shared.sequential(10, in_shared=True)
        spilled.sequential(10, in_shared=False)
        assert spilled.cycles > shared.cycles

    def test_stage_attribution(self):
        w = Warp(get_device("v100"))
        w.set_stage("locate")
        w.sequential(5)
        w.set_stage("distance")
        w.simd_compute(64)
        assert set(w.stage_cycles) == {"locate", "distance"}
        assert sum(w.stage_cycles.values()) == pytest.approx(w.cycles)

    def test_zero_ops_free(self):
        w = Warp(get_device("v100"))
        w.simd_compute(0)
        w.sequential(0)
        w.warp_reduce(0)
        w.shared_access(0)
        assert w.cycles == 0


class TestCostModel:
    def test_occupancy_limited_by_shared(self):
        cm = CostModel(get_device("v100"))
        full = cm.occupancy_warps_per_sm(0)
        tight = cm.occupancy_warps_per_sm(48 * 1024)
        assert full == 64
        assert tight == 2

    def test_occupancy_at_least_one(self):
        cm = CostModel(get_device("v100"))
        assert cm.occupancy_warps_per_sm(10**9) == 1

    def test_kernel_time_monotone_in_work(self):
        cm = CostModel(get_device("v100"))
        t1 = cm.kernel_time([1000.0] * 100, 10**6)
        t2 = cm.kernel_time([2000.0] * 100, 10**6)
        assert t2 > t1

    def test_kernel_time_bandwidth_bound(self):
        cm = CostModel(get_device("v100"))
        # negligible cycles, huge traffic -> bandwidth term dominates
        t = cm.kernel_time([1.0], 900 * 10**9)
        assert t == pytest.approx(1.0, rel=0.01)

    def test_kernel_time_critical_path(self):
        cm = CostModel(get_device("v100"))
        dev = cm.device
        t = cm.kernel_time([dev.clock_hz], 0)  # one warp, 1 second of cycles
        assert t >= 1.0

    def test_more_parallelism_helps_until_saturation(self):
        cm = CostModel(get_device("v100"))
        cycles = [10_000.0]
        t_small = cm.kernel_time(cycles * 10, 0)
        t_large = cm.kernel_time(cycles * 1000, 0)
        # 100x more queries should take far less than 100x longer
        assert t_large < 100 * t_small

    def test_more_cores_never_slower(self):
        big = CostModel(get_device("v100"))
        small = CostModel(get_device("v100").with_overrides(num_sms=8))
        work = [5000.0] * 500
        assert big.kernel_time(work, 10**6) <= small.kernel_time(work, 10**6)

    def test_transfer_time_latency_floor(self):
        cm = CostModel(get_device("v100"))
        assert cm.transfer_time(0) == 0.0
        assert cm.transfer_time(1) >= 10e-6

    def test_empty_batch(self):
        cm = CostModel(get_device("v100"))
        assert cm.kernel_time([], 0) == 0.0

"""Warp-cost tests: the event → warp-primitive table and the counters under it."""

from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import Placement, WarpMeter
from repro.distances import get_metric
from repro.simt.device import get_device
from repro.simt.memory import MemorySpace
from repro.simt.warp import Warp
from repro.structures.visited import VisitedBackend


def _placement(shared=True):
    return Placement(
        frontier_in_shared=shared,
        topk_in_shared=shared,
        visited_in_shared=shared,
        shared_bytes_per_warp=1024,
    )


def _meter(warp, config, shared=True):
    return WarpMeter(
        warp, config, _placement(shared), get_metric("l2").flops_per_distance
    )


class TestWarpMeter:
    def test_stage_attribution(self):
        warp = Warp(get_device("v100"))
        m = _meter(warp, SearchConfig(k=10, queue_size=32))
        m.stage("locate")
        m.pop_frontier()
        m.stage("distance")
        m.bulk_distance(4, 64)
        m.stage("maintain")
        m.visited_insert()
        assert set(warp.stage_cycles) == {"locate", "distance", "maintain"}

    def test_queue_ops_logarithmic_in_queue_size(self):
        dev = get_device("v100")
        w_small, w_big = Warp(dev), Warp(dev)
        _meter(w_small, SearchConfig(k=10, queue_size=16)).pop_frontier()
        _meter(w_big, SearchConfig(k=10, queue_size=4096)).pop_frontier()
        assert w_big.cycles > w_small.cycles
        ratio = w_big.cycles / w_small.cycles
        assert ratio < 4  # log(4096)/log(16) = 3

    def test_spilled_structures_cost_more(self):
        dev = get_device("v100")
        cfg = SearchConfig(k=10, queue_size=32)
        w_shared, w_global = Warp(dev), Warp(dev)
        _meter(w_shared, cfg, shared=True).pop_frontier()
        _meter(w_global, cfg, shared=False).pop_frontier()
        assert w_global.cycles > w_shared.cycles

    def test_multi_query_scatters_graph_reads(self):
        dev = get_device("v100")
        w1, w4 = Warp(dev), Warp(dev)
        _meter(w1, SearchConfig(k=10, queue_size=32)).read_graph_row(16)
        _meter(w4, SearchConfig(k=10, queue_size=32, multi_query=4)).read_graph_row(16)
        assert w1.memory.scattered_accesses == 0
        assert w4.memory.scattered_accesses == 16
        assert w4.memory.total_global_bytes > w1.memory.total_global_bytes

    def test_multi_query_narrows_distance_lanes(self):
        dev = get_device("v100")
        w1, w4 = Warp(dev), Warp(dev)
        _meter(w1, SearchConfig(k=10, queue_size=32)).bulk_distance(8, 64)
        _meter(w4, SearchConfig(k=10, queue_size=32, multi_query=4)).bulk_distance(8, 64)
        assert w4.cycles > w1.cycles

    def test_bulk_distance_reads_vector_bytes(self):
        warp = Warp(get_device("v100"))
        _meter(warp, SearchConfig(k=10, queue_size=32)).bulk_distance(6, 50)
        assert warp.memory.coalesced_bytes == 6 * 50 * 4

    def test_backend_op_step_ordering(self):
        """The open-addressing table probes warp-parallel (1 step); the
        single maintaining thread walks the Cuckoo buckets (3) and the
        Bloom positions (4) sequentially."""
        dev = get_device("v100")
        cycles = {}
        for backend in (
            VisitedBackend.HASH_TABLE,
            VisitedBackend.CUCKOO,
            VisitedBackend.BLOOM,
        ):
            w = Warp(dev)
            _meter(w, SearchConfig(k=10, queue_size=32, visited_backend=backend)
                   ).visited_test()
            cycles[backend] = w.cycles
        assert (
            cycles[VisitedBackend.HASH_TABLE]
            < cycles[VisitedBackend.CUCKOO]
            < cycles[VisitedBackend.BLOOM]
        )


def _random_memspace(draw):
    counts = draw(
        st.lists(st.integers(min_value=0, max_value=10_000), min_size=3, max_size=3)
    )
    m = MemorySpace()
    m.read_coalesced(counts[0])
    m.read_scattered(counts[1])
    m.access_shared(counts[2])
    return m


class TestMeterConservation:
    """merge/reset are field-generic: every counter — including ones
    added after merge was written — must be conserved, never dropped."""

    @given(st.data())
    def test_memoryspace_merge_conserves_every_field(self, data):
        a = _random_memspace(data.draw)
        b = _random_memspace(data.draw)
        before = {f.name: getattr(a, f.name) + getattr(b, f.name) for f in fields(a)}
        a.merge(b)
        after = {f.name: getattr(a, f.name) for f in fields(a)}
        assert after == before

    @given(st.data())
    def test_memoryspace_total_bytes_additive_under_merge(self, data):
        a = _random_memspace(data.draw)
        b = _random_memspace(data.draw)
        expected = a.total_global_bytes + b.total_global_bytes
        a.merge(b)
        assert a.total_global_bytes == expected

    def test_memoryspace_reset_zeroes_every_field(self):
        m = MemorySpace()
        m.read_coalesced(512)
        m.read_scattered(7)
        m.access_shared(3)
        m.reset()
        assert all(getattr(m, f.name) == 0 for f in fields(m))

    @staticmethod
    def _random_warp(draw):
        w = Warp(get_device("v100"))
        stages = ("locate", "distance", "maintain")
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            w.set_stage(draw(st.sampled_from(stages)))
            op = draw(st.integers(min_value=0, max_value=4))
            if op == 0:
                w.simd_compute(draw(st.integers(min_value=1, max_value=500)))
            elif op == 1:
                w.warp_reduce(draw(st.integers(min_value=1, max_value=4)))
            elif op == 2:
                w.global_read_coalesced(draw(st.integers(min_value=0, max_value=4096)))
            elif op == 3:
                w.shared_access(draw(st.integers(min_value=1, max_value=64)))
            else:
                w.sequential(
                    draw(st.integers(min_value=1, max_value=32)),
                    in_shared=draw(st.booleans()),
                )
        return w

    @given(st.data())
    def test_warp_merge_conserves_cycles_and_stages(self, data):
        a = self._random_warp(data.draw)
        b = self._random_warp(data.draw)
        total_cycles = a.cycles + b.cycles
        total_mem = {
            f.name: getattr(a.memory, f.name) + getattr(b.memory, f.name)
            for f in fields(a.memory)
        }
        stage_sum = dict(a.stage_cycles)
        for s, c in b.stage_cycles.items():
            stage_sum[s] = stage_sum.get(s, 0.0) + c
        a.merge(b)
        assert a.cycles == total_cycles
        assert {f.name: getattr(a.memory, f.name) for f in fields(a.memory)} == total_mem
        assert a.stage_cycles == stage_sum
        # the stage attribution invariant survives merging
        assert a.cycles == pytest.approx(sum(a.stage_cycles.values()))

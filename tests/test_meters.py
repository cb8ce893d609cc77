"""Warp-cost tests: the event → warp-primitive table and the counters under it."""

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import Placement, WarpMeter
from repro.distances import get_metric
from repro.simt.device import get_device
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

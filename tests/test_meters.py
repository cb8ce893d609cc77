"""Per-event pricing: what each kind of search operation costs one lane.

Each test prices a one-lane record block through
:func:`repro.core.gpu_kernel.price_block`, the one function from
operation counts to cycles.
"""

import numpy as np

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import (
    RECORD_COLUMNS,
    DistanceProfile,
    Placement,
    price_block,
)
from repro.simt.device import get_device
from repro.simt.memory import SCATTERED_SECTOR_BYTES
from repro.structures.visited import VisitedBackend


def _placement(shared=True):
    return Placement(
        frontier_in_shared=shared,
        topk_in_shared=shared,
        visited_in_shared=shared,
        shared_bytes_per_warp=1024,
    )


def _price(config, shared=True, dim=64, degree=16, **counts):
    """One lane whose record holds ``counts`` (every other count 0)."""
    block = np.array([[counts.get(name, 0) for name in RECORD_COLUMNS]], dtype=np.int64)
    profile = DistanceProfile.for_metric("l2", dim)
    return price_block(block, config, _placement(shared), profile, degree, get_device("v100"))


class TestWarpMeter:
    def test_stage_attribution(self):
        cfg = SearchConfig(k=10, queue_size=32)
        for counts, stage in (
            ({"frontier_pops": 1}, "locate"),
            ({"distance_computations": 4}, "distance"),
            ({"visited_inserts": 1}, "maintain"),
        ):
            cycles = _price(cfg, **counts).stage_cycles
            assert set(cycles) == {"locate", "distance", "maintain"}
            assert {s for s, c in cycles.items() if c} == {stage}

    def test_queue_ops_logarithmic_in_queue_size(self):
        small = _price(SearchConfig(k=10, queue_size=16), frontier_pops=1).warp_cycles[0]
        big = _price(SearchConfig(k=10, queue_size=4096), frontier_pops=1).warp_cycles[0]
        assert big > small
        assert big / small < 4  # log(4096)/log(16) = 3

    def test_spilled_structures_cost_more(self):
        cfg = SearchConfig(k=10, queue_size=32)
        shared = _price(cfg, shared=True, frontier_pops=1)
        spilled = _price(cfg, shared=False, frontier_pops=1)
        assert spilled.warp_cycles[0] > shared.warp_cycles[0]
        # Every spilled op is a scattered global read.
        assert shared.total_global_bytes == 0
        assert spilled.total_global_bytes > 0

    def test_multi_query_scatters_graph_reads(self):
        one = _price(SearchConfig(k=10, queue_size=32), rows_fetched=1)
        four = _price(SearchConfig(k=10, queue_size=32, multi_query=4), rows_fetched=1)
        assert one.total_global_bytes == 4 * 16  # one coalesced 16-slot row
        assert four.total_global_bytes == 16 * SCATTERED_SECTOR_BYTES
        assert four.total_global_bytes > one.total_global_bytes

    def test_multi_query_narrows_distance_lanes(self):
        one = _price(SearchConfig(k=10, queue_size=32), distance_computations=8)
        four = _price(
            SearchConfig(k=10, queue_size=32, multi_query=4), distance_computations=8
        )
        assert four.stage_cycles["distance"] > one.stage_cycles["distance"]

    def test_bulk_distance_reads_vector_bytes(self):
        priced = _price(SearchConfig(k=10, queue_size=32), dim=50, distance_computations=6)
        assert priced.total_global_bytes == 6 * 50 * 4

    def test_backend_op_step_ordering(self):
        """The open-addressing table probes warp-parallel (1 step); the
        single maintaining thread walks the Cuckoo buckets (3) and the
        Bloom positions (4) sequentially."""
        cycles = {
            backend: _price(
                SearchConfig(k=10, queue_size=32, visited_backend=backend),
                visited_tests=1,
            ).warp_cycles[0]
            for backend in (
                VisitedBackend.HASH_TABLE,
                VisitedBackend.CUCKOO,
                VisitedBackend.BLOOM,
            )
        }
        assert (
            cycles[VisitedBackend.HASH_TABLE]
            < cycles[VisitedBackend.CUCKOO]
            < cycles[VisitedBackend.BLOOM]
        )

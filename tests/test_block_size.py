"""Block-size extension and latency-percentile tests."""

import pytest

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import GpuSongIndex
from repro.simt.cost import CostModel
from repro.simt.device import get_device


class TestConfig:
    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            SearchConfig(block_size=0)
        with pytest.raises(ValueError):
            SearchConfig(block_size=48)
        SearchConfig(block_size=128)  # ok

    def test_multi_query_excludes_blocks(self):
        with pytest.raises(ValueError):
            SearchConfig(multi_query=2, block_size=64)


class TestBlockSemantics:
    def test_results_identical_across_block_sizes(self, small_dataset, small_graph):
        """block_size is purely a machine-mapping knob."""
        idx = GpuSongIndex(small_graph, small_dataset.data)
        base, _ = idx.search_batch(
            small_dataset.queries[:5], SearchConfig(k=10, queue_size=40)
        )
        for bs in (64, 128):
            got, _ = idx.search_batch(
                small_dataset.queries[:5],
                SearchConfig(k=10, queue_size=40, block_size=bs),
            )
            for a, b in zip(base, got):
                assert [v for _, v in a] == [v for _, v in b]

    def test_bigger_block_shrinks_distance_stage(self, small_dataset, small_graph):
        idx = GpuSongIndex(small_graph, small_dataset.data)
        def distance_cycles(bs):
            _, t = idx.search_batch(
                small_dataset.queries[:5],
                SearchConfig(k=10, queue_size=40, block_size=bs),
            )
            return t.stage_cycles["distance"]

        assert distance_cycles(128) < distance_cycles(32)

    def test_bigger_block_lowers_group_residency(self):
        cm = CostModel(get_device("v100"))
        work = [10_000.0] * 400
        t1 = cm.kernel_time(work, 0, warps_per_group=1)
        t4 = cm.kernel_time(work, 0, warps_per_group=4)
        assert t4 >= t1  # fewer resident groups can never be faster here

    def test_warps_per_group_validated(self):
        cm = CostModel(get_device("v100"))
        with pytest.raises(ValueError):
            cm.kernel_time([1.0], 0, warps_per_group=0)


class TestLatencyPercentiles:
    def test_warp_cycles_recorded_per_query(self, small_dataset, small_graph):
        idx = GpuSongIndex(small_graph, small_dataset.data)
        _, timing = idx.search_batch(
            small_dataset.queries[:7], SearchConfig(k=10, queue_size=40)
        )
        assert len(timing.warp_cycles) == 7

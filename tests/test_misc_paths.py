"""Targeted tests for smaller code paths not covered elsewhere."""

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import GpuSongIndex
from repro.data.synthetic import _zipf_sizes
from repro.eval.report import _fmt
from repro.eval.sweep import _effective_queue_sizes
from repro.graphs._search import greedy_search
from repro.distances import get_metric
from repro.structures.visited import VisitedBackend


class TestEffectiveQueueSizes:
    def test_clamps_and_dedupes(self):
        assert _effective_queue_sizes([10, 20, 40], k=25) == [25, 40]

    def test_no_clamp_needed(self):
        assert _effective_queue_sizes([10, 20], k=5) == [10, 20]

    def test_all_below_k(self):
        assert _effective_queue_sizes([1, 2, 3], k=100) == [100]


class TestReportFormatting:
    def test_fmt_variants(self):
        assert _fmt(None) == "N/A"
        assert _fmt(0.0) == "0"
        assert _fmt(1234.5) == "1,234"  # round-half-even
        assert _fmt(3.14159) == "3.14"
        assert _fmt(0.001234) == "0.0012"
        assert _fmt("text") == "text"


class TestZipfSizes:
    def test_sums_to_n(self):
        rng = np.random.default_rng(0)
        sizes = _zipf_sizes(1000, 13, 1.2, rng)
        assert sizes.sum() == 1000

    def test_skew_orders_sizes(self):
        rng = np.random.default_rng(0)
        sizes = _zipf_sizes(1000, 10, 1.5, rng)
        assert sizes[0] == max(sizes)
        assert sizes[0] > 3 * sizes[-1]


class TestGreedySearchInternal:
    def test_ef_validation(self, small_dataset, small_graph):
        with pytest.raises(ValueError):
            greedy_search(
                small_dataset.data,
                small_graph.neighbors,
                small_dataset.queries[0],
                ef=0,
                entry_points=[0],
                metric=get_metric("l2"),
            )

    def test_duplicate_entry_points_deduped(self, small_dataset, small_graph):
        out = greedy_search(
            small_dataset.data,
            small_graph.neighbors,
            small_dataset.queries[0],
            ef=10,
            entry_points=[0, 0, 0],
            metric=get_metric("l2"),
        )
        ids = [v for _, v in out]
        assert len(ids) == len(set(ids))

    def test_returns_sorted(self, small_dataset, small_graph):
        out = greedy_search(
            small_dataset.data,
            small_graph.neighbors,
            small_dataset.queries[1],
            ef=15,
            entry_points=[small_graph.entry_point],
            metric=get_metric("l2"),
        )
        assert [d for d, _ in out] == sorted(d for d, _ in out)
        assert len(out) <= 15


class TestPlacementRules:
    def test_cuckoo_visited_in_shared(self, small_dataset, small_graph):
        """Probabilistic filters have fixed allocations -> shared memory."""
        idx = GpuSongIndex(small_graph, small_dataset.data)
        cfg = SearchConfig(
            k=10, queue_size=40, visited_backend=VisitedBackend.CUCKOO
        )
        assert idx.placement(cfg).visited_in_shared

    def test_shared_budget_scales_with_multi_query(self, small_dataset, small_graph):
        idx = GpuSongIndex(small_graph, small_dataset.data)
        p1 = idx.placement(SearchConfig(k=10, queue_size=40))
        p4 = idx.placement(SearchConfig(k=10, queue_size=40, multi_query=4))
        assert p4.shared_bytes_per_warp > p1.shared_bytes_per_warp


class TestDatasetMetricPlumbing:
    def test_ground_truth_respects_metric(self):
        from repro.data.datasets import Dataset

        rng = np.random.default_rng(3)
        data = rng.normal(size=(50, 4)).astype(np.float32)
        queries = rng.normal(size=(3, 4)).astype(np.float32)
        ds_l2 = Dataset("x", data, queries, metric="l2")
        ds_ip = Dataset("x", data, queries, metric="ip")
        gt_l2 = ds_l2.ground_truth(5)
        gt_ip = ds_ip.ground_truth(5)
        assert not np.array_equal(gt_l2, gt_ip)
        # ip ground truth = largest dot products
        dots = queries @ data.T
        np.testing.assert_array_equal(
            gt_ip[0], np.argsort(-dots[0], kind="stable")[:5]
        )


class TestProbeAccounting:
    def test_open_addressing_probe_counter(self):
        from repro.structures.hash_table import OpenAddressingSet

        s = OpenAddressingSet(16)
        before = s.probes
        s.insert(1)
        s.contains(1)
        assert s.probes > before

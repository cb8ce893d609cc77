"""Evaluation harness tests: recall, sweeps, interpolation, reports."""

import numpy as np
import pytest

from repro.core.cpu_song import CpuSongIndex
from repro.core.gpu_kernel import GpuSongIndex
from repro.eval.recall import batch_recall, recall_at_k
from repro.eval.report import format_curve, format_speedup_table, format_table
from repro.eval.sweep import (
    SweepPoint,
    qps_at_recall,
    sweep_cpu_song,
    sweep_gpu_song,
    sweep_hnsw,
)
from repro.graphs.hnsw import HNSWIndex


class TestRecall:
    def test_recall_at_k(self):
        assert recall_at_k([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)
        assert recall_at_k([], [1]) == 0.0
        assert recall_at_k([5, 6], [5, 6]) == 1.0

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            recall_at_k([1], [])

    def test_batch_recall(self):
        results = [[(0.1, 1), (0.2, 2)], [(0.3, 9), (0.4, 8)]]
        gt = np.array([[1, 2], [8, 7]])
        assert batch_recall(results, gt) == pytest.approx((1.0 + 0.5) / 2)

    def test_batch_recall_length_mismatch(self):
        with pytest.raises(ValueError):
            batch_recall([[(0.0, 1)]], np.zeros((2, 1), dtype=int))


class TestInterpolation:
    def _points(self):
        return [
            SweepPoint(param=10, recall=0.5, qps=1000.0),
            SweepPoint(param=20, recall=0.8, qps=400.0),
            SweepPoint(param=40, recall=0.95, qps=100.0),
        ]

    def test_exact_hit(self):
        assert qps_at_recall(self._points(), 0.8) == pytest.approx(400.0)

    def test_interpolated_between(self):
        q = qps_at_recall(self._points(), 0.65)
        assert 400.0 < q < 1000.0

    def test_unreachable_returns_none(self):
        assert qps_at_recall(self._points(), 0.99) is None

    def test_below_first_point(self):
        assert qps_at_recall(self._points(), 0.1) == pytest.approx(1000.0)

    def test_empty(self):
        assert qps_at_recall([], 0.5) is None


class TestSweeps:
    def test_gpu_sweep_recall_monotone_ish(self, small_dataset, small_graph):
        idx = GpuSongIndex(small_graph, small_dataset.data)
        pts = sweep_gpu_song(small_dataset, idx, [10, 40, 120], k=10)
        assert len(pts) == 3
        assert pts[-1].recall >= pts[0].recall
        assert pts[0].qps >= pts[-1].qps * 0.8  # more work -> lower QPS

    def test_cpu_sweep(self, small_dataset, small_graph):
        idx = CpuSongIndex(small_graph, small_dataset.data)
        pts = sweep_cpu_song(small_dataset, idx, [10, 60], k=10)
        assert pts[1].recall >= pts[0].recall

    def test_hnsw_sweep(self, small_dataset):
        hnsw = HNSWIndex(small_dataset.data, m=8, ef_construction=40, seed=1).build()
        pts = sweep_hnsw(small_dataset, hnsw, [10, 60], k=10)
        assert pts[1].recall >= pts[0].recall
        assert all(p.qps > 0 for p in pts)


class TestReports:
    def test_format_curve(self):
        pts = [SweepPoint(10, 0.5, 100.0), SweepPoint(20, 0.9, 50.0)]
        text = format_curve("SONG", pts)
        assert "SONG" in text
        assert "0.5000" in text

    def test_format_table_na(self):
        text = format_table("T", ["a", "b"], [[1, None], [2.5, 3.0]])
        assert "N/A" in text
        assert "2.50" in text

    def test_speedup_table(self):
        text = format_speedup_table(
            "Table II", [0.5, 0.9], {"sift": [5.9, None], "gist": [4.8, 7.7]}
        )
        assert "sift" in text and "N/A" in text and "0.5" in text

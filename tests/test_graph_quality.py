"""Graph-quality regression floors for every builder.

Each family has one construction path, and the oracle it is held to is
not a second builder but the exact answer: brute-force ground truth
(search recall@10) for the navigable graphs.

Floors are set ~0.03 under measured values at this seed/config
(everything lands at 0.98+).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.song import SongSearcher
from repro.eval import batch_recall
from repro.graphs import HNSWIndex, build_dpg, build_nsg, build_nsw

N, DIM, NUM_QUERIES, K = 1000, 16, 100, 10


@pytest.fixture(scope="module")
def quality_data():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((N, DIM)).astype(np.float32)
    queries = rng.standard_normal((NUM_QUERIES, DIM)).astype(np.float32)
    dists = ((queries[:, None, :] - data[None, :, :]) ** 2).sum(axis=-1)
    ground_truth = np.argsort(dists, axis=1, kind="stable")[:, :K]
    return data, queries, ground_truth


def _search_recall(graph, data, queries, ground_truth) -> float:
    config = SearchConfig(k=K, queue_size=64)
    results = SongSearcher(graph, data).search_batch(queries, config)
    return batch_recall(results, ground_truth)


class TestNSW:
    def test_recall_floor(self, quality_data):
        data, queries, gt = quality_data
        graph = build_nsw(data, m=8, ef_construction=48, seed=7)
        assert _search_recall(graph, data, queries, gt) >= 0.95

    def test_diameter_is_small(self, small_graph):
        """Small-world property: every vertex is a few hops from the entry."""
        adjacency = small_graph.adjacency_array
        hops = np.full(len(adjacency), -1)
        hops[small_graph.entry_point] = 0
        frontier, depth = np.array([small_graph.entry_point]), 0
        while frontier.size:
            depth += 1
            reached = np.unique(adjacency[frontier].ravel())
            frontier = reached[(reached >= 0) & (hops[np.maximum(reached, 0)] < 0)]
            hops[frontier] = depth
        assert hops.max() < 20


class TestNSG:
    def test_recall_floor(self, quality_data):
        data, queries, gt = quality_data
        graph = build_nsg(data, degree=16, knn=16)
        assert _search_recall(graph, data, queries, gt) >= 0.95


class TestDPG:
    def test_recall_floor(self, quality_data):
        data, queries, gt = quality_data
        graph = build_dpg(data, degree=16)
        assert _search_recall(graph, data, queries, gt) >= 0.95


class TestHNSW:
    def test_recall_floor(self, quality_data):
        data, queries, gt = quality_data
        index = HNSWIndex(data, m=8, ef_construction=48, seed=1).build()
        results = index.search_batch(queries, K, ef=64)
        assert batch_recall(results, gt) >= 0.96

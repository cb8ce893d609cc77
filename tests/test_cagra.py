"""CAGRA builder tests: validity, connectivity, quality, cost metering.

The CAGRA-shaped builder is validated against the NSG it is meant to
outclass on build time: at equal max degree the detour-count reordering
plus reverse merge must match or beat NSG's search recall (measured
margin at this seed is ~0.04; the assertion is exact ``>=`` because the
whole pipeline is deterministic).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.song import SongSearcher
from repro.eval import batch_recall
from repro.graphs import build_cagra, build_nsg
from repro.graphs._repair import reachable_mask
from repro.graphs.cagra import CagraBuilder
from repro.graphs.storage import PAD
from repro.simt.build_cost import BuildCostRecorder

N, DIM, NUM_QUERIES, K, DEGREE = 1000, 16, 100, 10, 16


@pytest.fixture(scope="module")
def cagra_data():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((N, DIM)).astype(np.float32)
    queries = rng.standard_normal((NUM_QUERIES, DIM)).astype(np.float32)
    dists = ((queries[:, None, :] - data[None, :, :]) ** 2).sum(axis=-1)
    ground_truth = np.argsort(dists, axis=1, kind="stable")[:, :K]
    return data, queries, ground_truth


@pytest.fixture(scope="module")
def cagra_graph(cagra_data):
    data, _, _ = cagra_data
    return build_cagra(data, degree=DEGREE, seed=0)


def _search_recall(graph, data, queries, ground_truth) -> float:
    config = SearchConfig(k=K, queue_size=64)
    results = SongSearcher(graph, data).search_batch(queries, config)
    return batch_recall(results, ground_truth)


class TestStructure:
    def test_adjacency_valid(self, cagra_graph):
        adj = cagra_graph.adjacency_array
        assert adj.shape == (N, DEGREE)
        real = adj[adj != PAD]
        assert real.min() >= 0 and real.max() < N
        # no self-loops anywhere
        rows = np.repeat(np.arange(N), DEGREE)
        assert not np.any(adj.ravel() == rows)

    def test_rows_deduplicated(self, cagra_graph):
        adj = cagra_graph.adjacency_array
        for row in adj:
            real = row[row != PAD]
            assert len(np.unique(real)) == len(real)

    def test_fully_reachable(self, cagra_graph):
        adj = cagra_graph.adjacency_array.astype(np.int64)
        assert reachable_mask(adj, cagra_graph.entry_point).all()


class TestQuality:
    def test_recall_at_least_nsg(self, cagra_data, cagra_graph):
        data, queries, gt = cagra_data
        nsg = build_nsg(data, degree=DEGREE, knn=DEGREE, search_len=48)
        cagra_recall = _search_recall(cagra_graph, data, queries, gt)
        nsg_recall = _search_recall(nsg, data, queries, gt)
        assert cagra_recall >= nsg_recall

    def test_recall_floor(self, cagra_data, cagra_graph):
        data, queries, gt = cagra_data
        assert _search_recall(cagra_graph, data, queries, gt) >= 0.95


class TestValidation:
    def test_degree_too_small(self, cagra_data):
        data, _, _ = cagra_data
        with pytest.raises(ValueError, match="degree"):
            CagraBuilder(data, degree=1)

    def test_intermediate_below_degree(self, cagra_data):
        data, _, _ = cagra_data
        with pytest.raises(ValueError, match="intermediate_degree"):
            CagraBuilder(data, degree=16, intermediate_degree=8)

    def test_knn_table_shape_checked(self, cagra_data):
        data, _, _ = cagra_data
        bad = np.zeros((N, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="knn_table"):
            CagraBuilder(data, degree=DEGREE, knn_table=bad).build()

    def test_dataset_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            build_cagra(np.zeros((8, 4), dtype=np.float32), degree=8)


class TestCostRecorder:
    def test_records_phases(self, cagra_data):
        data, _, _ = cagra_data
        rec = BuildCostRecorder()
        build_cagra(data, degree=DEGREE, cost=rec)
        assert len(rec.phases) > 0
        labels = {p.name for p in rec.phases}
        assert "reorder" in labels and "reverse-merge" in labels
        assert rec.device_cycles() > 0
        assert rec.device_seconds() > 0
        assert rec.cpu_seconds() > 0

    def test_modeled_device_beats_modeled_cpu(self, cagra_data):
        # the point of the cost model: the same counted work is orders
        # of magnitude cheaper on the device than on one CPU core
        data, _, _ = cagra_data
        rec = BuildCostRecorder()
        build_cagra(data, degree=DEGREE, cost=rec)
        assert rec.device_seconds() < rec.cpu_seconds()


class TestClusteredData:
    def test_disconnected_clusters_get_bridged(self):
        # two well-separated blobs: the kNN table alone is disconnected,
        # so the repair pass must bridge components
        rng = np.random.default_rng(3)
        a = rng.standard_normal((300, 8)).astype(np.float32)
        b = rng.standard_normal((300, 8)).astype(np.float32) + 80.0
        data = np.concatenate([a, b])
        graph = build_cagra(data, degree=8, seed=0)
        adj = graph.adjacency_array.astype(np.int64)
        assert reachable_mask(adj, graph.entry_point).all()

"""HNSW index tests."""

import numpy as np
import pytest

from repro.distances import OpCounter
from repro.graphs.hnsw import HNSWIndex


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(21)
    return rng.normal(size=(500, 12)).astype(np.float32)


@pytest.fixture(scope="module")
def index(points):
    return HNSWIndex(points, m=8, ef_construction=48, seed=3).build()


class TestConstruction:
    def test_multiple_layers_exist(self, index):
        assert len(index._layers) >= 2

    def test_entry_point_on_top_layer(self, index):
        top = len(index._layers) - 1
        assert index.entry_point in index._layers[top]

    def test_layer_membership_nested(self, index):
        """A vertex on layer l exists on every layer below."""
        for l in range(1, len(index._layers)):
            for v in index._layers[l]:
                assert v in index._layers[l - 1]

    def test_degree_bounds_respected(self, index):
        for l, layer in enumerate(index._layers):
            cap = index.m0 if l == 0 else index.m
            for v, row in layer.items():
                assert len(row) <= cap, f"layer {l} vertex {v} over degree"

    def test_invalid_m(self, points):
        with pytest.raises(ValueError):
            HNSWIndex(points, m=1)

    def test_search_before_build_raises(self, points):
        idx = HNSWIndex(points, m=4)
        with pytest.raises(RuntimeError):
            idx.search(points[0], 5)


class TestSearch:
    def test_self_query_finds_self(self, index, points):
        for v in (0, 10, 99):
            res = index.search(points[v], 1, ef=32)
            assert res[0][1] == v

    def test_recall_high_with_large_ef(self, index, points):
        hits = 0
        for q in range(25):
            d = ((points - points[q]) ** 2).sum(axis=1)
            truth = set(np.argsort(d, kind="stable")[:10].tolist())
            res = index.search(points[q], 10, ef=80)
            hits += len(truth & {v for _, v in res})
        assert hits / 250 > 0.9

    def test_results_sorted_ascending(self, index, points):
        res = index.search(points[3], 10, ef=40)
        ds = [d for d, _ in res]
        assert ds == sorted(ds)

    def test_larger_ef_never_smaller_recall_on_average(self, index, points):
        def recall(ef):
            hits = 0
            for q in range(20):
                d = ((points - points[q]) ** 2).sum(axis=1)
                truth = set(np.argsort(d, kind="stable")[:10].tolist())
                res = index.search(points[q], 10, ef=ef)
                hits += len(truth & {v for _, v in res})
            return hits / 200

        assert recall(100) >= recall(10) - 0.02

    def test_counter_records_work(self, index, points):
        c = OpCounter()
        index.search(points[0], 10, ef=50, counter=c)
        assert c.distance_calls > 10
        assert c.distance_flops > 0
        assert c.hops >= 1

    def test_invalid_k(self, index, points):
        with pytest.raises(ValueError):
            index.search(points[0], 0)


class TestExport:
    def test_base_layer_graph(self, index, points):
        g = index.base_layer_graph()
        g.validate()
        assert g.num_vertices == len(points)
        assert g.degree == index.m0
        assert g.entry_point == index.entry_point

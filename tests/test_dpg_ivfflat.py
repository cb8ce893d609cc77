"""DPG graph tests."""

import numpy as np
import pytest

from repro.core.algorithm1 import algorithm1_search
from repro.graphs.dpg import build_dpg


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(41)
    return rng.normal(size=(400, 12)).astype(np.float32)


class TestDPG:
    @pytest.fixture(scope="class")
    def dpg(self, points):
        return build_dpg(points, degree=12)

    def test_valid_graph(self, dpg, points):
        dpg.validate()
        assert dpg.num_vertices == len(points)
        assert dpg.degree == 12

    def test_degree_validation(self, points):
        with pytest.raises(ValueError):
            build_dpg(points, degree=1)

    def test_mostly_undirected(self, dpg):
        """DPG adds reverse edges; most edges should be symmetric."""
        sym = total = 0
        for v in range(dpg.num_vertices):
            for u in dpg.neighbors(v):
                total += 1
                if v in dpg.neighbors(int(u)):
                    sym += 1
        assert sym / total > 0.6

    def test_search_recall(self, dpg, points):
        hits = 0
        for q in range(20):
            d = ((points - points[q]) ** 2).sum(axis=1)
            truth = set(np.argsort(d, kind="stable")[:10].tolist())
            res = algorithm1_search(dpg, points, points[q], 10, queue_size=50)
            hits += len(truth & {v for _, v in res})
        assert hits / 200 > 0.85

    def test_edges_diverse(self, dpg, points):
        """Diversified out-edges should not all point the same way: the
        mean pairwise cosine among a vertex's first half-degree edges is
        well below 1."""
        v = 0
        row = [int(u) for u in dpg.neighbors(v)][:6]
        dirs = points[row] - points[v]
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        cos = dirs @ dirs.T
        off_diag = cos[~np.eye(len(row), dtype=bool)]
        assert off_diag.mean() < 0.8

    def test_accepts_precomputed_table(self, points):
        from repro.graphs.bruteforce_knn import knn_neighbors

        table = knn_neighbors(points, 24)
        g = build_dpg(points, degree=12, knn_table=table)
        g.validate()


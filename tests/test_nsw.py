"""NSW construction tests."""

import numpy as np
import pytest

from repro.core.algorithm1 import algorithm1_search
from repro.graphs.nsw import NSWBuilder, build_nsw


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(11)
    return rng.normal(size=(400, 10)).astype(np.float32)


class TestConstruction:
    def test_graph_is_valid(self, points):
        g = build_nsw(points, m=6, ef_construction=32)
        g.validate()
        assert g.num_vertices == len(points)
        assert g.degree == 12  # default max_degree = 2 * m

    def test_custom_max_degree(self, points):
        g = build_nsw(points, m=6, ef_construction=32, max_degree=8)
        assert g.degree == 8
        assert all(len(g.neighbors(v)) <= 8 for v in range(g.num_vertices))

    def test_connectivity_from_entry(self, points):
        g = build_nsw(points, m=6, ef_construction=32)
        seen = {g.entry_point}
        stack = [g.entry_point]
        while stack:
            v = stack.pop()
            for u in g.neighbors(v):
                if int(u) not in seen:
                    seen.add(int(u))
                    stack.append(int(u))
        assert len(seen) == g.num_vertices, "NSW graph must be connected"

    def test_invalid_params(self, points):
        with pytest.raises(ValueError):
            NSWBuilder(points, m=0)
        with pytest.raises(ValueError):
            NSWBuilder(points, m=8, ef_construction=4)
        with pytest.raises(ValueError):
            NSWBuilder(np.empty((0, 4))).build()

    def test_shuffle_seed_changes_graph(self, points):
        g1 = build_nsw(points, m=4, ef_construction=16, seed=1)
        g2 = build_nsw(points, m=4, ef_construction=16, seed=2)
        assert not np.array_equal(g1.adjacency_array, g2.adjacency_array)

    def test_deterministic_given_seed(self, points):
        g1 = build_nsw(points, m=4, ef_construction=16, seed=5)
        g2 = build_nsw(points, m=4, ef_construction=16, seed=5)
        np.testing.assert_array_equal(g1.adjacency_array, g2.adjacency_array)


class TestSearchQuality:
    def test_search_recall_reasonable(self, points):
        """Best-first search over the NSW graph finds most true neighbors."""
        g = build_nsw(points, m=8, ef_construction=48)
        hits = total = 0
        for q in range(30):
            query = points[q]
            d = ((points - query) ** 2).sum(axis=1)
            truth = set(np.argsort(d, kind="stable")[:10].tolist())
            found = algorithm1_search(g, points, query, 10, queue_size=60)
            hits += len(truth & {v for _, v in found})
            total += 10
        assert hits / total > 0.9

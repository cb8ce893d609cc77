"""Exact kNN graph and NN-descent tests."""

import numpy as np
import pytest

from repro.graphs.bruteforce_knn import build_knn_graph, knn_neighbors, medoid
from repro.graphs.nn_descent import graph_recall, nn_descent


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(3)
    return rng.normal(size=(300, 12)).astype(np.float32)


class TestExactKnn:
    def test_neighbors_are_exact(self, points):
        nbrs = knn_neighbors(points, 5)
        # verify a few rows against a direct argsort
        for v in (0, 17, 199):
            d = ((points - points[v]) ** 2).sum(axis=1)
            d[v] = np.inf
            expected = np.argsort(d, kind="stable")[:5]
            assert set(nbrs[v]) == set(expected)

    def test_neighbors_sorted_by_distance(self, points):
        nbrs = knn_neighbors(points, 5)
        for v in (0, 50):
            ds = [((points[v] - points[u]) ** 2).sum() for u in nbrs[v]]
            assert ds == sorted(ds)

    def test_excludes_self(self, points):
        nbrs = knn_neighbors(points, 8)
        for v in range(len(points)):
            assert v not in nbrs[v]

    def test_blocked_matches_unblocked(self, points):
        for k in (1, 4, len(points) - 1):
            a = knn_neighbors(points, k, block=32)
            b = knn_neighbors(points, k, block=10_000)
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, knn_neighbors(points, k))

    def test_tile_memory_is_bounded(self):
        """The tile height follows from n under a byte budget: at n = 8192
        a 4 MiB float32 tile and its 8 MiB int64 partition index, where
        fixed 1024-row tiles traced 192 MiB."""
        import tracemalloc

        data = np.random.default_rng(4).normal(size=(8192, 16)).astype(np.float32)
        tracemalloc.start()
        try:
            nbrs = knn_neighbors(data, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nbrs.shape == (8192, 10)
        assert peak < 64 * 2**20

    def test_invalid_k(self, points):
        with pytest.raises(ValueError):
            knn_neighbors(points, 0)
        with pytest.raises(ValueError):
            knn_neighbors(points, len(points))

    def test_build_graph_entry_is_medoid(self, points):
        g = build_knn_graph(points, 4)
        assert g.entry_point == medoid(points)
        g.validate()

    def test_medoid_minimizes_distance_to_centroid(self, points):
        m = medoid(points)
        center = points.mean(axis=0)
        d = ((points - center) ** 2).sum(axis=1)
        assert m == int(np.argmin(d))


class TestNNDescent:
    def test_high_recall_vs_exact(self, points):
        exact = knn_neighbors(points, 8)
        approx = nn_descent(points, 8, seed=1)
        assert graph_recall(approx, exact) > 0.85

    def test_deterministic_given_seed(self, points):
        a = nn_descent(points[:100], 5, seed=9)
        b = nn_descent(points[:100], 5, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_no_self_neighbors(self, points):
        approx = nn_descent(points[:100], 5, seed=0)
        for v in range(100):
            assert v not in approx[v]

    def test_shape(self, points):
        approx = nn_descent(points[:50], 6, seed=0)
        assert approx.shape == (50, 6)

    def test_k_too_large_rejected(self, points):
        with pytest.raises(ValueError):
            nn_descent(points[:10], 10)

    def test_graph_recall_validates_shapes(self):
        with pytest.raises(ValueError):
            graph_recall(np.zeros((3, 2), dtype=int), np.zeros((3, 3), dtype=int))


class TestAdaptiveCap:
    """``max_candidates=None`` derives the join-list cap from the tail."""

    @pytest.fixture(scope="class")
    def hubby(self):
        # a dense shrunken cloud with a few near-centroid points: in
        # moderate dimension the planted points are near-neighbors of a
        # large share of the cloud and collect huge reverse lists
        rng = np.random.default_rng(0)
        base = 0.05 * rng.standard_normal((1500, 24)).astype(np.float32)
        hubs = 0.01 * rng.standard_normal((8, 24)).astype(np.float32)
        return np.vstack([base, hubs]).astype(np.float32)

    def test_identical_to_slack_fixed_cap_on_typical_data(self, points):
        """On typical degree distributions the adaptive cap never binds,
        so results are bit-identical to a run with a huge fixed cap."""
        stats = {}
        adaptive = nn_descent(points, 8, seed=4, stats=stats)
        fixed = nn_descent(points, 8, seed=4, max_candidates=512)
        np.testing.assert_array_equal(adaptive, fixed)
        assert sum(stats["capped_vertices"]) == 0

    def test_caps_only_hubs_on_hub_heavy_data(self, hubby):
        stats = {}
        nn_descent(hubby, 10, seed=4, stats=stats)
        # the cap bound some vertices (the hubs), but only a handful
        assert max(stats["capped_vertices"]) > 0
        assert max(stats["capped_vertices"]) <= 12
        # and the cap tracked the tail, not the hub maximum
        rounds = range(1, len(stats["caps"]))  # round 0 starts uniform
        assert any(stats["max_list_len"][r] > stats["caps"][r] for r in rounds)

    def test_recall_survives_hub_truncation(self, hubby):
        from repro.graphs.bruteforce_knn import knn_neighbors

        exact = knn_neighbors(hubby, 10)
        approx = nn_descent(hubby, 10, seed=4)
        assert graph_recall(approx, exact) > 0.85

    def test_stats_keys_and_lengths(self, points):
        stats = {}
        nn_descent(points[:150], 6, seed=0, stats=stats)
        assert set(stats) == {"caps", "max_list_len", "capped_vertices"}
        rounds = len(stats["caps"])
        assert rounds >= 1
        assert len(stats["max_list_len"]) == rounds
        assert len(stats["capped_vertices"]) == rounds
        assert all(c >= 32 for c in stats["caps"])

    def test_explicit_cap_still_respected(self, points):
        stats = {}
        nn_descent(points[:150], 6, seed=0, max_candidates=16, stats=stats)
        assert all(c == 16 for c in stats["caps"])
        with pytest.raises(ValueError):
            nn_descent(points[:150], 6, max_candidates=0)

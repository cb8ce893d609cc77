"""Exact kNN graph tests."""

import numpy as np
import pytest

from repro.data import ground_truth
from repro.graphs import bruteforce_knn
from repro.graphs.bruteforce_knn import build_knn_graph, knn_neighbors, medoid


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

    @pytest.mark.parametrize(
        "case, metric",
        [(case, "l2") for case in ("ties", "duplicates", "tiles", "narrow", "one-tile", "one-tie")]
        + [(case, metric) for case in ("ties", "duplicates", "tiles", "one-tile")
           for metric in ("cosine", "ip")],
    )  # fmt: skip
    def test_self_join_equals_ground_truth(self, case, metric, monkeypatch):
        """The half-matrix self-join returns ``ground_truth``'s table byte for
        byte on inputs that stress its pools, its tiles and its tie rule, and
        never re-scores a lone row (numpy would send it to GEMV)."""
        rng = np.random.default_rng(11)
        k, block = 8, None
        if case == "ties":  # small integers: every distance is an exact small number
            data = rng.integers(0, 3, size=(150, 6))
        elif case == "duplicates":
            data = rng.normal(size=(50, 8))[rng.integers(0, 50, size=200)]
        elif case == "tiles":  # 128-point sides: 600 points span 5, 600 % 128 != 0
            monkeypatch.setattr(bruteforce_knn, "TILE_BYTES", 4 * 128 * 128)
            data = rng.normal(size=(600, 10))
        elif case == "narrow":  # 16-point sides, narrower than a 41-slot pool
            data, k, block = rng.normal(size=(300, 12)), 40, 16
        elif case == "one-tile":
            data = rng.normal(size=(40, 5))
            k = len(data) - 1
        else:  # one-tie: a far point q and a duplicated pair p, p beside it
            far = 40.0 * np.ones(12)
            pair = far + rng.normal(size=12)
            data = np.vstack([rng.normal(size=(200, 12)), far + rng.normal(size=12), pair, pair])
        data = data.astype(np.float32)
        reference = ground_truth(data, data, k, metric, exclude_self=True)

        rescored = []
        select = bruteforce_knn.band_top_k

        def spy(m, band, points, norms, k, own=None):
            assert len(band) >= 2
            rescored.extend(own.tolist())
            return select(m, band, points, norms, k, own)

        monkeypatch.setattr(bruteforce_knn, "band_top_k", spy)
        np.testing.assert_array_equal(knn_neighbors(data, k, metric, block), reference)
        if (case, metric) == ("ties", "l2"):
            assert sorted(rescored) == list(range(len(data)))
        if case in ("tiles", "narrow"):  # no exact ties: the pools decide alone
            assert rescored == []
        if case == "one-tie":  # q alone ties (p and p at one distance), plus a partner
            assert rescored[0] == 200 and len(rescored) == 2

    def test_tile_memory_is_bounded(self):
        """The tile height follows from n under a byte budget: at n = 8192
        one 4 MiB float32 tile of distances, finished in place, beside the
        result and a few ``PANEL_BYTES`` blocks (the int64 selection index
        among them).  Fixed 1024-row tiles traced 192 MiB, and a tile-sized
        int64 partition index beside a second distance tile 20.7 MiB."""
        import tracemalloc

        from repro.data.ground_truth import TILE_BYTES
        from repro.distances.metrics import PANEL_BYTES

        data = np.random.default_rng(4).normal(size=(8192, 16)).astype(np.float32)
        tracemalloc.start()
        try:
            nbrs = knn_neighbors(data, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert nbrs.shape == (8192, 10)
        assert peak < TILE_BYTES + nbrs.nbytes + 4 * PANEL_BYTES

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

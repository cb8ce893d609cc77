"""SONG under inner-product and cosine metrics.

The paper notes the parallel-reduction distance stage applies to p-norm,
cosine similarity, and inner product alike; verify the whole search stack
honours the metric end to end.
"""

import numpy as np
import pytest

from repro.baselines.flat import FlatIndex
from repro.core.config import SearchConfig
from repro.core.song import SongSearcher
from repro.distances import get_metric
from repro.graphs.bruteforce_knn import build_knn_graph


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(77)
    pts = rng.normal(size=(400, 16)).astype(np.float32)
    return pts


@pytest.mark.parametrize("metric", ["ip", "cosine"])
class TestNonL2Metrics:
    def test_graph_built_on_metric_searchable(self, points, metric):
        graph = build_knn_graph(points, 10, metric=metric)
        searcher = SongSearcher(graph, points)
        flat = FlatIndex(points, metric=metric)
        cfg = SearchConfig(k=10, queue_size=80, metric=metric)
        hits = total = 0
        for q in points[:20]:
            truth = {v for _, v in flat.search(q, 10)}
            got = {v for _, v in searcher.search(q, cfg)}
            hits += len(truth & got)
            total += 10
        assert hits / total > 0.7, f"{metric} recall too low: {hits / total}"

    def test_distances_match_metric(self, points, metric):
        graph = build_knn_graph(points, 8, metric=metric)
        searcher = SongSearcher(graph, points)
        cfg = SearchConfig(k=5, queue_size=30, metric=metric)
        q = points[0]
        for d, v in searcher.search(q, cfg):
            assert d == pytest.approx(
                get_metric(metric).single(q, points[v]), rel=1e-4, abs=1e-6
            )

    def test_results_ascending(self, points, metric):
        graph = build_knn_graph(points, 8, metric=metric)
        searcher = SongSearcher(graph, points)
        cfg = SearchConfig(k=10, queue_size=40, metric=metric)
        res = searcher.search(points[3], cfg)
        ds = [d for d, _ in res]
        assert ds == sorted(ds)


class TestMipsUseCase:
    def test_inner_product_prefers_large_norm_vectors(self):
        """MIPS (the paper's Section IX application): vectors with large
        norms should dominate the top results for a random query."""
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(300, 8)).astype(np.float32)
        pts[:10] *= 20.0  # ten huge-norm vectors
        graph = build_knn_graph(pts, 10, metric="ip")
        searcher = SongSearcher(graph, pts)
        cfg = SearchConfig(k=5, queue_size=60, metric="ip")
        q = rng.normal(size=8).astype(np.float32)
        res = searcher.search(q, cfg)
        flat = FlatIndex(pts, metric="ip")
        truth = [v for _, v in flat.search(q, 5)]
        assert len(set(v for _, v in res) & set(truth)) >= 3

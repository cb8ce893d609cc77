"""End-to-end integration tests across the whole stack."""

import hashlib

import numpy as np
import pytest

from repro import (
    GpuSongIndex,
    HNSWIndex,
    SearchConfig,
    build_nsg,
    build_nsw,
)
from repro.baselines import FlatIndex, IVFPQIndex
from repro.core.cpu_song import CpuSongIndex
from repro.data import make_dataset
from repro.eval import batch_recall, sweep_gpu_song, sweep_hnsw, sweep_ivfpq
from repro.eval.sweep import qps_at_recall
from repro.core.song import SearchStats
from repro.distances import get_metric
from repro.graphs.storage import FixedDegreeGraph
from repro.hashing import SignRandomProjection


class TestFullPipeline:
    def test_song_beats_hnsw_throughput_at_matched_recall(
        self, small_dataset, small_graph
    ):
        """The paper's headline: GPU SONG runs far faster than
        single-thread HNSW at comparable recall."""
        from repro.data.datasets import Dataset

        # Tile the queries so the batch saturates the simulated device
        # (the paper uses 10k-query batches; Fig. 11 shows small batches
        # underutilize the GPU).
        saturated = Dataset(
            name=small_dataset.name,
            data=small_dataset.data,
            queries=np.tile(small_dataset.queries, (10, 1)),
        )
        idx = GpuSongIndex(small_graph, small_dataset.data)
        hnsw = HNSWIndex(
            small_dataset.data, m=8, ef_construction=40, seed=1
        ).build()
        song_pts = sweep_gpu_song(saturated, idx, [10, 20, 40, 80, 160], k=10)
        hnsw_pts = sweep_hnsw(small_dataset, hnsw, [10, 20, 40, 80, 160], k=10)
        target = 0.8
        song_qps = qps_at_recall(song_pts, target)
        hnsw_qps = qps_at_recall(hnsw_pts, target)
        assert song_qps is not None and hnsw_qps is not None
        assert song_qps > 10 * hnsw_qps

    def test_ivfpq_recall_ceiling_on_clustered_data(
        self, clustered_small_dataset
    ):
        """Fig. 5 shape on NYTimes-like data: IVFPQ cannot reach the
        recall the graph method reaches."""
        ds = clustered_small_dataset
        ivf = IVFPQIndex(ds.dim, nlist=16, m=8, ksub=32, seed=0).train(ds.data)
        ivf.add(ds.data)
        pts = sweep_ivfpq(ds, ivf, [1, 4, 16], k=10)
        graph = build_nsw(ds.data, m=8, ef_construction=40, seed=7)
        song = GpuSongIndex(graph, ds.data)
        song_pts = sweep_gpu_song(ds, song, [200], k=10)
        assert song_pts[0].recall > max(p.recall for p in pts)

    def test_nsg_pipeline(self, small_dataset):
        """Fig. 12: SONG accelerates an NSG index too."""
        ds = small_dataset
        nsg = build_nsg(ds.data, degree=12, knn=12, search_len=30)
        idx = GpuSongIndex(nsg, ds.data)
        results, timing = idx.search_batch(ds.queries, SearchConfig(k=10, queue_size=80))
        assert batch_recall(results, ds.ground_truth(10)) > 0.75
        assert timing.qps(ds.num_queries) > 0

    def test_cpu_and_gpu_song_agree(self, small_dataset, small_graph):
        cfg = SearchConfig(k=10, queue_size=50)
        gpu = GpuSongIndex(small_graph, small_dataset.data)
        cpu = CpuSongIndex(small_graph, small_dataset.data)
        g_results, _ = gpu.search_batch(small_dataset.queries[:5], cfg)
        c_batch = cpu.search_batch(small_dataset.queries[:5], cfg)
        for g, c in zip(g_results, c_batch.results):
            assert [v for _, v in g] == [v for _, v in c]


def hamming_knn_graph(signatures: np.ndarray, degree: int) -> FixedDegreeGraph:
    """Exact kNN graph over packed signatures (ties by vertex id)."""
    hamming = get_metric("hamming")
    adjacency = []
    for v in range(len(signatures)):
        d = hamming.batch(signatures[v], signatures)
        d[v] = np.inf
        adjacency.append(np.argsort(d, kind="stable")[:degree].tolist())
    return FixedDegreeGraph.from_adjacency(adjacency, degree=degree)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestHashedPipeline:
    def test_search_on_hashed_dataset(self):
        """Fig. 14 pipeline: hash to bits, build a graph over Hamming
        space, search with SONG, compare against float-space truth."""
        ds = make_dataset("mnist8m", n=500, num_queries=20)
        rp = SignRandomProjection(ds.dim, num_bits=256, seed=0)
        sig_data = rp.transform(ds.data)
        sig_queries = rp.transform(ds.queries)
        graph = hamming_knn_graph(sig_data, degree=10)

        idx = GpuSongIndex(graph, sig_data)
        cfg = SearchConfig(k=10, queue_size=80, metric="hamming")
        results, timing = idx.search_batch(sig_queries, cfg)
        recall = batch_recall(results, ds.ground_truth(10))
        assert recall > 0.5  # hashed search approximates float-space truth
        assert timing.kernel_seconds > 0

    @pytest.fixture(scope="class")
    def hashed_128(self):
        ds = make_dataset("mnist8m", n=600, num_queries=40, seed=0)
        rp = SignRandomProjection(ds.dim, num_bits=128, seed=0)
        signatures = rp.transform(ds.data)
        graph = hamming_knn_graph(signatures, degree=16)
        return ds, GpuSongIndex(graph, signatures, device="titanx"), rp.transform(ds.queries)

    def test_metered_hashed_search_golden(self, hashed_128):
        """Captured at 6739d5b through ``search_batch(..., distance_fn=
        HammingSpace(signatures).batch_distance)``: the per-query serial
        searcher, byte-table popcounts in float64, priced as "l2" over
        four words.  Digests are sha256[:16] of ``repr``."""
        _, index, query_signatures = hashed_128
        assert _digest(index.graph.adjacency_array.tolist()) == "7aa7b089125e669d"
        cfg = SearchConfig(
            k=10,
            queue_size=100,
            metric="hamming",
            selected_insertion=True,
            visited_deletion=True,
        )
        results, timing = index.search_batch(query_signatures, cfg, collect_stats=True)
        assert results[0] == [
            (16.0, 181), (16.0, 547), (19.0, 540), (20.0, 34), (22.0, 533),
            (23.0, 359), (25.0, 383), (26.0, 287), (26.0, 354), (27.0, 459),
        ]
        assert _digest(results) == "b724b68f774551dd"
        records = [tuple(getattr(s, f) for f in SearchStats.__slots__) for s in timing.stats]
        assert _digest(records) == "62c9037656245e50"
        assert timing.total_seconds == 0.00013795239436619717
        assert timing.stage_cycles == {
            "locate": 2056370.0,
            "distance": 96632.0,
            "maintain": 2135860.0,
        }

    def test_packed_index_refuses_a_float_metric(self, hashed_128):
        """Without ``metric="hamming"`` this search used to run squared L2
        over the uint32 words with wraparound subtraction: no error, and
        recall@10 of 0.02 where Hamming gives 0.62."""
        ds, index, query_signatures = hashed_128
        with pytest.raises(ValueError, match="hamming"):
            index.search_batch(query_signatures, SearchConfig(k=10, queue_size=100))
        # Float queries were truncated to the data's integer dtype as quietly.
        hamming = SearchConfig(k=10, queue_size=100, metric="hamming")
        with pytest.raises(ValueError, match="uint32"):
            index.search_batch(ds.queries[:, :4], hamming)
        results, _ = index.search_batch(query_signatures, hamming)
        assert batch_recall(results, ds.ground_truth(10)) > 0.5

    def test_hashed_dataset_preserved_dtype(self):
        sigs = np.zeros((10, 4), dtype=np.uint32)
        from repro.graphs.storage import FixedDegreeGraph

        g = FixedDegreeGraph.from_adjacency([[1], [0]] + [[0]] * 8)
        idx = GpuSongIndex(g, sigs)
        assert idx.data.dtype == np.uint32


class TestSanityAgainstExact:
    def test_high_queue_size_approaches_exact(self, small_dataset, small_graph):
        idx = GpuSongIndex(small_graph, small_dataset.data)
        flat = FlatIndex(small_dataset.data)
        cfg = SearchConfig(k=10, queue_size=300)
        results, _ = idx.search_batch(small_dataset.queries, cfg)
        gt = small_dataset.ground_truth(10)
        assert batch_recall(results, gt) > 0.9
        # exact reference agrees with cached ground truth
        for q, row in zip(small_dataset.queries[:3], gt[:3]):
            assert [v for _, v in flat.search(q, 10)] == row.tolist()

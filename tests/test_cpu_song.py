"""CPU SONG variant and CPU machine model tests."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.cpu_song import CpuSongIndex, record_ops
from repro.core.machine import DEFAULT_CPU, TUNED_CPU, CpuModel
from repro.core.song import SearchStats
from repro.distances import OpCounter
from repro.eval.recall import batch_recall
from repro.graphs.bruteforce_knn import build_knn_graph


class TestCpuModel:
    def test_seconds_positive_for_work(self):
        c = OpCounter()
        c.distance_flops = 10**7
        c.queue_ops = 100
        assert DEFAULT_CPU.seconds(c) > 0

    def test_zero_work_zero_time(self):
        assert DEFAULT_CPU.seconds(OpCounter()) == 0.0

    def test_tuned_model_faster(self):
        c = OpCounter()
        c.distance_flops = 10**8
        c.queue_ops = 10_000
        c.hash_ops = 10_000
        assert TUNED_CPU.seconds(c) < DEFAULT_CPU.seconds(c)

    def test_memory_term(self):
        c = OpCounter()
        t0 = DEFAULT_CPU.seconds(c, bytes_read=0)
        t1 = DEFAULT_CPU.seconds(c, bytes_read=10**9)
        assert t1 > t0


class TestRecordOps:
    """Operation record → CPU work units (what ``CpuModel`` prices)."""

    def test_distance_accounting(self):
        record = SearchStats()
        record.searches = 2
        record.distance_computations = 8
        c = record_ops(record, degree=16, flops_per_distance=48)
        assert c.distance_calls == 10  # the two entry-point seeds included
        assert c.distance_flops == 480
        assert c.vector_reads == 10

    def test_queue_and_hash_accounting(self):
        record = SearchStats()
        record.searches = 1
        record.frontier_pops = 1
        record.frontier_pushes = 3
        record.topk_updates = 2
        record.visited_tests = 4
        record.visited_inserts = 2
        record.visited_deletes = 1
        record.rows_fetched = 1
        c = record_ops(record, degree=16, flops_per_distance=48)
        assert c.queue_ops == 6
        assert c.hash_ops == 8  # tests + inserts + the seed's insert + deletes
        assert c.graph_reads == 16
        assert c.hops == 1


#: ``CpuSongIndex`` on 300 seeded Gaussian points (d=16, exact 8-NN graph,
#: 12 queries, k=10, queue 40), captured while a live ``CountingMeter``
#: still fed the counter: (counter snapshot, batch seconds, seconds of
#: query 0 alone).  Fig. 15 reads these numbers; they must not move.
CPU_GOLDENS = {
    ("l2", False): (
        dict(distance_calls=1503, distance_flops=72144, vector_reads=1503,
             graph_reads=3976, queue_ops=2509, hash_ops=5479, hops=509),
        0.000118197, 1.0138e-05,
    ),
    ("l2", True): (
        dict(distance_calls=1728, distance_flops=82944, vector_reads=1728,
             graph_reads=3976, queue_ops=2665, hash_ops=6356, hops=509),
        0.000129069, 1.1149e-05,
    ),
    ("cosine", False): (
        dict(distance_calls=1906, distance_flops=182976, vector_reads=1906,
             graph_reads=4024, queue_ops=2924, hash_ops=5930, hops=515),
        0.00013496199999999997, 1.1349e-05,
    ),
    ("cosine", True): (
        dict(distance_calls=2298, distance_flops=220608, vector_reads=2298,
             graph_reads=4024, queue_ops=3214, hash_ops=7474, hops=515),
        0.00015538799999999998, 1.2828e-05,
    ),
}


@pytest.mark.parametrize("metric, optimized", sorted(CPU_GOLDENS))
def test_cpu_pricing_matches_the_metered_goldens(metric, optimized):
    rng = np.random.default_rng(2020)
    data = rng.standard_normal((300, 16)).astype(np.float32)
    queries = rng.standard_normal((12, 16)).astype(np.float32)
    index = CpuSongIndex(build_knn_graph(data, 8, metric), data)
    config = SearchConfig(
        k=10, queue_size=40, metric=metric,
        selected_insertion=optimized, visited_deletion=optimized,
    )
    snapshot, batch_seconds, first_seconds = CPU_GOLDENS[metric, optimized]
    batch = index.search_batch(queries, config)
    assert asdict(batch.counter) == snapshot
    assert batch.seconds == batch_seconds
    assert index.search_batch(queries[:1], config).seconds == first_seconds


class TestCpuSongIndex:
    @pytest.fixture(scope="class")
    def index(self, small_dataset, small_graph):
        return CpuSongIndex(small_graph, small_dataset.data)

    def test_single_query(self, index, small_dataset):
        cfg = SearchConfig(k=10, queue_size=40)
        batch = index.search_batch(small_dataset.queries[:1], cfg)
        assert len(batch.results[0]) == 10
        assert batch.seconds > 0

    def test_batch_recall(self, index, small_dataset):
        cfg = SearchConfig(k=10, queue_size=80)
        batch = index.search_batch(small_dataset.queries, cfg)
        gt = small_dataset.ground_truth(10)
        assert batch_recall(batch.results, gt) > 0.8
        assert batch.qps() > 0

    def test_batch_seconds_scale_with_queries(self, index, small_dataset):
        cfg = SearchConfig(k=10, queue_size=40)
        t5 = index.search_batch(small_dataset.queries[:5], cfg).seconds
        t20 = index.search_batch(small_dataset.queries[:20], cfg).seconds
        assert t20 > t5

    def test_counter_exposed(self, index, small_dataset):
        cfg = SearchConfig(k=5, queue_size=20)
        batch = index.search_batch(small_dataset.queries[:3], cfg)
        assert batch.counter.distance_calls > 0

    def test_custom_model(self, small_dataset, small_graph):
        slow = CpuModel(name="slow", flops_per_second=1e8, seq_op_seconds=1e-6)
        fast_idx = CpuSongIndex(small_graph, small_dataset.data, model=TUNED_CPU)
        slow_idx = CpuSongIndex(small_graph, small_dataset.data, model=slow)
        cfg = SearchConfig(k=5, queue_size=20)
        t_fast = fast_idx.search_batch(small_dataset.queries[:1], cfg).seconds
        t_slow = slow_idx.search_batch(small_dataset.queries[:1], cfg).seconds
        assert t_slow > t_fast

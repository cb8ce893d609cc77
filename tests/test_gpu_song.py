"""GPU SONG index tests: placement, timing behaviour, paper shapes."""

import pytest

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import GpuSongIndex
from repro.eval.recall import batch_recall
from repro.simt.profiler import StageProfiler
from repro.structures.visited import VisitedBackend


@pytest.fixture(scope="module")
def index(small_dataset, small_graph):
    return GpuSongIndex(small_graph, small_dataset.data, device="v100")


class TestFunctional:
    def test_results_match_cpu_searcher(self, index, small_dataset):
        cfg = SearchConfig(k=10, queue_size=40)
        gpu_results, _ = index.search_batch(small_dataset.queries[:5], cfg)
        for q, res in zip(small_dataset.queries[:5], gpu_results):
            cpu = index.searcher.search(q, cfg)
            assert [v for _, v in res] == [v for _, v in cpu]

    def test_recall_reasonable(self, index, small_dataset):
        cfg = SearchConfig(k=10, queue_size=80)
        results, _ = index.search_batch(small_dataset.queries, cfg)
        gt = small_dataset.ground_truth(10)
        assert batch_recall(results, gt) > 0.8

    def test_single_query_input(self, index, small_dataset):
        cfg = SearchConfig(k=5, queue_size=20)
        results, _ = index.search_batch(small_dataset.queries[0], cfg)
        assert len(results) == 1


class TestPlacement:
    def test_bounded_structures_in_shared(self, index):
        cfg = SearchConfig(k=10, queue_size=40, selected_insertion=True,
                           visited_deletion=True)
        p = index.placement(cfg)
        assert p.frontier_in_shared
        assert p.visited_in_shared

    def test_unbounded_visited_in_global(self, index):
        cfg = SearchConfig(k=10, queue_size=40)  # plain hash table
        p = index.placement(cfg)
        assert not p.visited_in_shared

    def test_bloom_visited_in_shared(self, index):
        cfg = SearchConfig(
            k=10, queue_size=40, visited_backend=VisitedBackend.BLOOM
        )
        p = index.placement(cfg)
        assert p.visited_in_shared

    def test_huge_queue_spills(self, index):
        cfg = SearchConfig(k=10, queue_size=10_000)
        p = index.placement(cfg)
        assert not p.frontier_in_shared

    def test_memory_accounting(self, index, small_dataset):
        assert index.index_memory_bytes() == index.graph.memory_bytes()
        assert index.dataset_memory_bytes() == small_dataset.data.nbytes
        assert index.resident_bytes <= index.device.memory_bytes


class TestTimingShapes:
    def test_sel_del_faster_at_large_queue(self, index, small_dataset):
        """Fig. 7 shape: bounding the visited set (shared residency +
        occupancy) beats the plain hash table."""
        queries = small_dataset.queries
        base = SearchConfig(k=10, queue_size=100)
        seldel = base.with_options(selected_insertion=True, visited_deletion=True)
        _, t_base = index.search_batch(queries, base)
        _, t_seldel = index.search_batch(queries, seldel)
        assert t_seldel.qps(len(queries)) > t_base.qps(len(queries))

    def test_multi_query_not_faster(self, index, small_dataset):
        """Fig. 8 shape: multi-query per warp hurts throughput."""
        queries = small_dataset.queries
        cfg1 = SearchConfig(k=10, queue_size=60)
        cfg4 = cfg1.with_options(multi_query=4)
        _, t1 = index.search_batch(queries, cfg1)
        _, t4 = index.search_batch(queries, cfg4)
        assert t4.qps(len(queries)) <= t1.qps(len(queries))

    def test_multi_step_probe_not_faster(self, index, small_dataset):
        """Fig. 9 shape: probing several vertices per step wastes work."""
        queries = small_dataset.queries
        cfg1 = SearchConfig(k=10, queue_size=60)
        cfg4 = cfg1.with_options(probe_steps=4)
        _, t1 = index.search_batch(queries, cfg1)
        _, t4 = index.search_batch(queries, cfg4)
        assert t4.qps(len(queries)) <= t1.qps(len(queries)) * 1.02

    def test_v100_fastest_of_presets(self, small_dataset, small_graph):
        """Fig. 13 shape: throughput follows device compute power."""
        cfg = SearchConfig(k=10, queue_size=60)
        qps = {}
        for dev in ("v100", "p40", "titanx"):
            idx = GpuSongIndex(small_graph, small_dataset.data, device=dev)
            _, t = idx.search_batch(small_dataset.queries, cfg)
            qps[dev] = t.qps(small_dataset.num_queries)
        assert qps["v100"] >= qps["p40"]
        assert qps["v100"] >= qps["titanx"]

    def test_profiler_stage_split(self, index, small_dataset):
        prof = StageProfiler()
        cfg = SearchConfig(k=10, queue_size=60)
        index.search_batch(small_dataset.queries[:10], cfg, profiler=prof)
        kb = prof.kernel_breakdown()
        assert sum(kb.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in kb.values())
        # all three stages should actually occur
        assert min(kb.values()) > 0

    def test_collect_stats(self, index, small_dataset):
        cfg = SearchConfig(k=10, queue_size=40)
        _, res = index.search_batch(
            small_dataset.queries[:4], cfg, collect_stats=True
        )
        assert len(res.stats) == 4
        assert all(s.iterations > 0 for s in res.stats)

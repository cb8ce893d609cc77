"""Out-of-core tier: stores, capacity ledger, cache, and the index."""

import hashlib
import warnings

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import DistanceProfile, GpuSongIndex, meter_lane
from repro.core.song import SearchStats
from repro.data import make_dataset
from repro.distances import get_metric
from repro.eval.recall import batch_recall
from repro.graphs import build_nsw
from repro.simt.device import get_device
from repro.serve.engine import SimulatedGpuEngine
from repro.simt.memory import CapacityLedger, DeviceMemoryExceeded
from repro.simt.pipeline import split_counts
from repro.simt.warp import Warp
from repro.structures.soa import PAD_KEY
from repro.tiered import (
    BitCodeStore,
    PageCache,
    PQCodeStore,
    TieredConfig,
    TieredIndex,
    TieredServeEngine,
    rerank_record,
)
from repro.tiered.cache import rowids_to_pages
from repro.tiered.codes import make_store
from repro.tiered.index import rerank_sort_keys


@pytest.fixture(scope="module")
def small():
    ds = make_dataset("sift", n=400, num_queries=12, seed=0)
    graph = build_nsw(ds.data, m=6, ef_construction=32, seed=7)
    return ds, graph


class TestConfig:
    def test_defaults_valid(self):
        tier = TieredConfig()
        assert tier.codec == "bits"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(codec="zstd"),
            dict(num_bits=100),  # not a multiple of 32
            dict(num_bits=0),
            dict(overfetch=0),
            dict(page_rows=0),
            dict(cache_pages=-1),
            dict(codec="pq", pq_m=0),
            dict(codec="pq", pq_ksub=300),  # must fit uint8
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TieredConfig(**kwargs)


class TestStores:
    def test_bits_hamming_over_codes_is_a_bit_by_bit_count(self, small):
        ds, _ = small
        store = BitCodeStore(ds.data[:50], TieredConfig(num_bits=64))
        # The engine traverses the device-resident form itself.
        assert store.traversal_data is store.codes
        assert store.codes.shape == (50, 2) and store.codes.dtype == np.uint32
        metric = get_metric(store.traversal_metric)
        bits = np.unpackbits(store.codes.view(np.uint8), axis=1, bitorder="little")
        for i, j in [(0, 1), (3, 17), (20, 49)]:
            reference = sum(int(a != b) for a, b in zip(bits[i], bits[j]))
            assert metric.single(store.codes[i], store.codes[j]) == reference

    def test_bits_query_encoding_matches_data_encoding(self, small):
        ds, _ = small
        store = BitCodeStore(ds.data[:50], TieredConfig(num_bits=64))
        # Encoding a data row as a query gives the row's own signature.
        np.testing.assert_array_equal(
            store.encode_queries(ds.data[:5]), store.traversal_data[:5]
        )

    def test_pq_proxy_is_decoded_rows(self, small):
        ds, _ = small
        tier = TieredConfig(codec="pq", pq_m=8, pq_ksub=16)
        store = PQCodeStore(ds.data[:80], tier)
        decoded = store.quantizer.decode(store.codes).astype(np.float32)
        np.testing.assert_array_equal(store.traversal_data, decoded)
        # ADC identity: L2(query, decoded) is the ADC distance, so the
        # query proxy is the raw query itself.
        np.testing.assert_array_equal(
            store.encode_queries(ds.queries[:3]),
            ds.queries[:3].astype(np.float32),
        )

    def test_cost_profile(self, small):
        ds, _ = small
        bits = BitCodeStore(ds.data[:40], TieredConfig(num_bits=96))
        assert bits.num_words == 3
        assert bits.cost_dim == 3
        assert bits.query_device_bytes == 12
        assert bits.flops_per_distance() == 9
        assert bits.device_code_bytes() == 40 * 3 * 4
        pq = PQCodeStore(ds.data[:40], TieredConfig(codec="pq", pq_m=8, pq_ksub=16))
        assert pq.cost_dim == 2
        assert pq.flops_per_distance() == 16
        assert pq.query_device_bytes == ds.data.shape[1] * 4

    def test_make_store_dispatch(self, small):
        ds, _ = small
        assert isinstance(make_store(ds.data[:20], TieredConfig()), BitCodeStore)
        assert isinstance(
            make_store(ds.data[:20], TieredConfig(codec="pq", pq_ksub=8)),
            PQCodeStore,
        )


class TestCapacityLedger:
    def _device(self, budget_bytes: int):
        return get_device("v100").with_overrides(
            memory_budget_gb=budget_bytes / float(1024**3)
        )

    def test_reserve_release_and_headroom(self):
        dev = self._device(1000)
        ledger = CapacityLedger(dev)
        ledger.reserve("a", 600)
        assert ledger.reserved_bytes == 600
        assert ledger.headroom_bytes == dev.memory_bytes - 600

    def test_overflow_raises_and_rolls_back(self):
        ledger = CapacityLedger(self._device(1000))
        ledger.reserve("index", 900)
        with pytest.raises(DeviceMemoryExceeded) as err:
            ledger.reserve("cache", ledger.budget_bytes)
        assert "index" in str(err.value)  # message lists reservations
        assert "cache" not in ledger.reservations  # rolled back

    def test_oversubscription_warns_instead(self):
        ledger = CapacityLedger(self._device(1000))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ledger.reserve(
                "big", ledger.budget_bytes + 1, allow_oversubscription=True
            )
        assert any(issubclass(w.category, ResourceWarning) for w in caught)
        assert "big" in ledger.reservations

    def test_gpu_index_enforces_budget(self, small):
        ds, graph = small
        dev = self._device(64 * 1024)  # far below data + graph
        with pytest.raises(DeviceMemoryExceeded):
            GpuSongIndex(graph, ds.data, device=dev)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            index = GpuSongIndex(
                graph, ds.data, device=dev, allow_oversubscription=True
            )
        assert any(issubclass(w.category, ResourceWarning) for w in caught)
        assert index.resident_bytes > index.device.memory_bytes

    def test_memory_budget_override(self):
        dev = get_device("v100")
        shrunk = dev.with_overrides(memory_budget_gb=0.5)
        assert shrunk.memory_bytes == int(0.5 * 1024**3)
        assert dev.memory_gb == dev.global_memory_gb


class TestPageCache:
    def test_lru_eviction_order(self):
        cache = PageCache(2)
        hits, missed = cache.touch_run(np.array([1, 2, 1]))
        assert hits == 1 and list(missed) == [1, 2]
        # Touch 1 (hit, moves to back), admit 3 → evicts 2, not 1.
        hits, missed = cache.touch_run(np.array([1, 3]))
        assert hits == 1 and list(missed) == [3]
        hits, missed = cache.touch_run(np.array([1, 2]))
        assert hits == 1 and list(missed) == [2]

    def test_zero_capacity_always_misses(self):
        cache = PageCache(0)
        hits, missed = cache.touch_run(np.array([5, 5, 5]))
        assert hits == 0 and list(missed) == [5, 5, 5]

    def test_counters_and_reset(self):
        cache = PageCache(4)
        cache.touch_run(np.array([1, 2, 1]))
        assert (cache.hits, cache.misses) == (1, 2)

    def test_rowids_to_pages(self):
        pages = rowids_to_pages(np.array([0, 15, 16, 100]), 16)
        np.testing.assert_array_equal(pages, [0, 0, 1, 6])
        assert pages.dtype == np.int64


class TestRerankKeys:
    def test_sorts_by_distance_then_id_with_padding(self):
        dists = np.array([[3.0, 1.0, 1.0, 9.0]], dtype=np.float32)
        ids = np.array([[7, 9, 2, 1]])
        valid = np.array([[True, True, True, False]])
        keys = rerank_sort_keys(dists, ids, valid)
        from repro.structures.soa import unpack_distances, unpack_ids

        assert keys[0, -1] == PAD_KEY  # invalid slot sorts last
        np.testing.assert_array_equal(unpack_ids(keys[:, :3])[0], [2, 9, 7])
        np.testing.assert_allclose(
            unpack_distances(keys[:, :3])[0], [1.0, 1.0, 3.0]
        )


class TestTieredIndex:
    TIER = TieredConfig(num_bits=256, overfetch=8, page_rows=16, cache_pages=2)

    def test_residency_accounting(self, small):
        ds, graph = small
        idx = TieredIndex(graph, ds.data, self.TIER)
        expected = (
            graph.memory_bytes()
            + idx.store.device_code_bytes()
            + min(self.TIER.cache_pages, idx.num_pages) * idx.page_bytes
        )
        assert idx.resident_bytes == expected
        assert idx.full_precision_bytes() == ds.data.nbytes + graph.memory_bytes()
        assert idx.compression_ratio() > 1.0

    def test_overfetch_panel_clamped_by_queue(self, small):
        ds, graph = small
        idx = TieredIndex(graph, ds.data, self.TIER)
        assert idx.overfetch_k(SearchConfig(k=10, queue_size=100)) == 80
        # The degradation ladder shrinks queue_size; the panel follows.
        assert idx.overfetch_k(SearchConfig(k=10, queue_size=32)) == 32
        assert idx.overfetch_k(SearchConfig(k=10, queue_size=10)) == 10

    def test_recall_within_floor_of_full_precision(self, small):
        ds, graph = small
        config = SearchConfig(k=10, queue_size=120)
        gt = ds.ground_truth(10)
        from repro.core.batched import BatchedSongSearcher

        full = BatchedSongSearcher(graph, ds.data).search_batch(
            ds.queries, config
        )
        full_recall = batch_recall(full, gt)
        tiered_recall = batch_recall(
            TieredIndex(graph, ds.data, self.TIER).search_batch_with_stats(
                ds.queries, config
            )[0],
            gt,
        )
        assert full_recall > 0.9
        # Over-fetch + exact re-rank holds recall near the
        # full-precision searcher on the same graph.
        assert tiered_recall >= full_recall - 0.3

    def test_pq_codec_searches(self, small):
        ds, graph = small
        tier = TieredConfig(
            codec="pq", pq_m=16, pq_ksub=16, overfetch=8, page_rows=16
        )
        idx = TieredIndex(graph, ds.data, tier)
        results, _, _ = idx.search_batch_with_stats(
            ds.queries, SearchConfig(k=5, queue_size=80)
        )
        assert len(results) == ds.num_queries
        assert all(len(r) == 5 for r in results)

    def test_rerank_distances_are_exact(self, small):
        ds, graph = small
        config = SearchConfig(k=5, queue_size=80)
        results, _, _ = TieredIndex(graph, ds.data, self.TIER).search_batch_with_stats(
            ds.queries, config
        )
        for q, res in zip(ds.queries, results):
            for dist, vertex in res:
                exact = float(((q - ds.data[vertex]) ** 2).sum())
                assert dist == pytest.approx(exact, rel=1e-5)

    def test_rerank_plan_pages_cover_candidates(self, small):
        ds, graph = small
        idx = TieredIndex(graph, ds.data, self.TIER)
        config = SearchConfig(k=5, queue_size=80)
        _, stats, plan = idx.search_batch_with_stats(ds.queries, config)
        assert len(stats) == ds.num_queries
        assert len(plan.page_lists) == ds.num_queries
        for pages, count in zip(plan.page_lists, plan.candidate_counts):
            assert count > 0
            # Ordered-unique: no duplicates, all within range.
            assert len(set(pages.tolist())) == len(pages)
            assert all(0 <= p < idx.num_pages for p in pages.tolist())


class TestOnePricingPath:
    """Both kernels of a tiered chunk come out of the launch every other
    engine is priced by; the tier only swaps the distance profile."""

    CONFIG = SearchConfig(k=10, queue_size=100)

    @pytest.mark.parametrize(
        "tier",
        [
            TieredConfig(num_bits=128, overfetch=8, page_rows=16, cache_pages=4),
            TieredConfig(codec="pq", pq_m=16, pq_ksub=16, overfetch=8, page_rows=16),
        ],
        ids=["bits", "pq"],
    )
    def test_chunk_kernel_is_traversal_plus_rerank_launch(self, small, tier):
        ds, graph = small
        config = self.CONFIG
        engine = TieredServeEngine(graph, ds.data, tier)
        _, chunks, _ = engine.chunked_batch(ds.queries, config, num_chunks=3)
        tiered = engine.tiered
        _, stats, plan = tiered.search_batch_with_stats(ds.queries, config)
        tcfg = tiered.traversal_config(config)
        reference = SimulatedGpuEngine(
            graph,
            tiered.store.traversal_data,
            resident_bytes=tiered.resident_bytes,
            profile=tiered.store,
        )
        traversal, _ = reference.chunk_work(
            tiered.store.encode_queries(ds.queries), tcfg, stats, num_chunks=3
        )
        exact = DistanceProfile.for_metric(config.metric, ds.data.shape[1])
        start = 0
        counts = split_counts(len(ds.queries), 3)
        for chunk, trav, count in zip(chunks, traversal, counts):
            records = [
                rerank_record(int(c), config.k)
                for c in plan.candidate_counts[start : start + count]
            ]
            start += count
            rerank = reference.index.price(records, config, exact)
            assert chunk.kernel == trav.kernel + rerank.kernel_seconds
            assert chunk.dtoh == rerank.dtoh_seconds
            assert chunk.htod >= trav.htod  # plus the chunk's page fetches

    def test_compressed_profile_is_cheaper_than_the_float_proxy(self, small):
        """PQ traverses decoded float rows; it is priced as the codes."""
        ds, graph = small
        tier = TieredConfig(
            codec="pq", pq_m=8, pq_ksub=16, overfetch=8, page_rows=16, cache_pages=4
        )
        tiered = TieredIndex(graph, ds.data, tier)
        _, stats, _ = tiered.search_batch_with_stats(ds.queries, self.CONFIG)
        proxy = tiered.store.encode_queries(ds.queries)
        seconds = {}
        for name, profile in (("store", tiered.store), ("proxy", None)):
            engine = SimulatedGpuEngine(
                graph,
                tiered.store.traversal_data,
                resident_bytes=tiered.resident_bytes,
                profile=profile,
            )
            seconds[name], _ = engine.estimate_batch_seconds(
                proxy, tiered.traversal_config(self.CONFIG), stats
            )
        assert seconds["store"] < seconds["proxy"]

    def test_rerank_lane_is_priced_by_meter_lane(self, small):
        ds, graph = small
        config = self.CONFIG
        gpu = GpuSongIndex(graph, ds.data)
        exact = DistanceProfile.for_metric(config.metric, ds.data.shape[1])
        records = [rerank_record(c, config.k) for c in (0, 7, 80)]
        priced = gpu.price(records, config, exact)
        for record, cycles in zip(records, priced.warp_cycles):
            warp = Warp(gpu.device)
            meter_lane(
                warp, record, config, gpu.placement(config), exact, graph.degree
            )
            assert warp.cycles == cycles
            # A re-rank is no search: nothing staged, seeded or probed.
            assert warp.stage_cycles.get("locate", 0.0) == 0.0
            assert warp.memory.coalesced_bytes == (
                4 * ds.data.shape[1] * record.distance_computations
            )


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestBitsTraversalGolden:
    """Captured at 6739d5b, where the lockstep engine walked 0/1 float32
    proxy rows under squared L2; packed words under Hamming must give the
    same lanes, records and clock (digests are sha256[:16] of ``repr``)."""

    TIER = TieredConfig(codec="bits", num_bits=64, overfetch=4, page_rows=8, cache_pages=8)
    CONFIG = SearchConfig(k=5, queue_size=32)
    FIRST_LANE = [
        (379.4015808105469, 123),
        (382.12408447265625, 186),
        (393.586669921875, 314),
        (407.7272033691406, 84),
        (409.54345703125, 315),
    ]
    #: ``SearchStats.__slots__`` order.
    FIRST_RECORD = (39, 180, 181, 180, 1, 40, 39, 365, 0, 39, 181)

    @pytest.mark.parametrize(
        "prefetch,service_seconds,num_chunks",
        [(True, 0.00028668946405228756, 3), (False, 0.002009778823529411, 1)],
    )
    def test_results_records_and_clock(self, small, prefetch, service_seconds, num_chunks):
        ds, graph = small
        engine = TieredServeEngine(graph, ds.data, self.TIER, prefetch=prefetch)
        results, stats, _ = engine.tiered.search_batch_with_stats(ds.queries, self.CONFIG)
        records = [tuple(getattr(s, f) for f in SearchStats.__slots__) for s in stats]
        assert len(SearchStats.__slots__) == 11
        assert results[0] == self.FIRST_LANE
        assert _digest(results) == "c29ccb53c654e5d4"
        assert records[0] == self.FIRST_RECORD
        assert _digest(records) == "c63e0ccc4083cf09"
        served = engine.run_batch(ds.queries, self.CONFIG)
        assert served.results == results
        assert served.service_seconds == service_seconds
        assert served.detail["num_chunks"] == num_chunks
        assert served.detail["tier"] == {
            "codec": "bits",
            "overfetch_k": 20,
            "rerank_rows": 240,
            "page_hits": 9,
            "page_misses": 184,
            "fetch_bytes": 753664,
            "resident_bytes": 55168,
            "compression_ratio": 4.060324825986079,
            "prefetch": prefetch,
        }


class TestPrefetchIdentity:
    def test_results_identical_prefetch_vs_serial(self, small):
        ds, graph = small
        tier = TieredConfig(num_bits=128, overfetch=8, page_rows=16, cache_pages=4)
        config = SearchConfig(k=10, queue_size=100)
        outs = {}
        for prefetch in (True, False):
            engine = TieredServeEngine(
                graph, ds.data, tier, prefetch=prefetch
            )
            outs[prefetch] = engine.run_batch(ds.queries, config)
        assert outs[True].results == outs[False].results
        # Staging only changes the clock: prefetch must be faster.
        assert outs[True].service_seconds < outs[False].service_seconds

    def test_results_invariant_to_chunking(self, small):
        ds, graph = small
        tier = TieredConfig(num_bits=128, overfetch=8, page_rows=16, cache_pages=4)
        config = SearchConfig(k=10, queue_size=100)
        r1, chunks1, d1 = TieredServeEngine(graph, ds.data, tier).chunked_batch(
            ds.queries, config, num_chunks=1
        )
        r4, chunks4, d4 = TieredServeEngine(graph, ds.data, tier).chunked_batch(
            ds.queries, config, num_chunks=4
        )
        assert r1 == r4
        assert len(chunks1) == 1 and len(chunks4) == 4
        # Cache is touched in lane order either way.
        assert d1["tier"]["page_hits"] == d4["tier"]["page_hits"]
        assert d1["tier"]["page_misses"] == d4["tier"]["page_misses"]

"""Multi-stream serving tests: pins, determinism, scaling, wiring.

The three acceptance properties from the issue live here:

* ``streams=1`` is bit-identical to the pre-stream serial accounting;
* virtual-time loadtests at ``streams=4`` are deterministic
  (bit-identical ServeMetrics JSON across runs);
* ``streams=4`` beats ``streams=1`` throughput at overload under the
  same SLO with identical recall.
"""

import pytest

from repro.core.config import SearchConfig
from repro.serve import (
    AdmissionConfig,
    BatchPolicy,
    Replica,
    ServerConfig,
    SimulatedGpuEngine,
    build_server,
    run_loadtest,
)


@pytest.fixture(scope="module")
def served(small_dataset, small_graph):
    return small_dataset, small_graph


def make_config(policy="reject", mode="fixed", slo_ms=2.0):
    return ServerConfig(
        base=SearchConfig(k=10, queue_size=64),
        admission=AdmissionConfig(policy=policy, slo_p99_s=slo_ms / 1e3),
        batch=BatchPolicy(mode=mode, batch_size=8, max_batch=16),
    )


def loadtest(ds, graph, cfg, rate, streams, n=300, seed=3):
    return run_loadtest(
        lambda: build_server(graph, ds.data, cfg, streams=streams),
        ds.queries,
        rate_qps=rate,
        num_requests=n,
        seed=seed,
        ground_truth=ds.ground_truth(10),
    )


class TestSerialPin:
    """streams=1 must be bit-identical to the pre-stream model."""

    def test_estimate_equals_single_chunk_sum(self, served):
        ds, graph = served
        engine = SimulatedGpuEngine(graph, ds.data)
        cfg = SearchConfig(k=10, queue_size=40)
        _, stats = engine.batched.search_batch_with_stats(ds.queries, cfg)
        seconds, _ = engine.estimate_batch_seconds(ds.queries, cfg, stats)
        chunks, _ = engine.chunk_work(ds.queries, cfg, stats, num_chunks=1)
        assert len(chunks) == 1
        c = chunks[0]
        assert seconds == c.kernel + c.htod + c.dtoh  # bitwise

    def test_chunked_pricing_conserves_engine_seconds(self, served):
        """Splitting redistributes transfer bytes exactly; kernel time
        may grow (critical path per chunk) but never shrinks."""
        ds, graph = served
        engine = SimulatedGpuEngine(graph, ds.data)
        cfg = SearchConfig(k=10, queue_size=40)
        _, stats = engine.batched.search_batch_with_stats(ds.queries, cfg)
        one, _ = engine.chunk_work(ds.queries, cfg, stats, num_chunks=1)
        four, _ = engine.chunk_work(ds.queries, cfg, stats, num_chunks=4)
        lat = engine.device.pcie_latency_us * 1e-6
        assert sum(c.htod for c in four) == pytest.approx(
            one[0].htod + 3 * lat, rel=1e-9
        )
        assert sum(c.kernel for c in four) >= one[0].kernel - 1e-15
        assert sum(c.warps for c in four) == one[0].warps

    def test_serial_replica_keeps_legacy_detail(self, served):
        from repro.serve.clock import run_virtual

        ds, graph = served
        replica = Replica(SimulatedGpuEngine(graph, ds.data), streams=1)
        assert replica.timeline is None

        async def main():
            return await replica.run_batch(
                ds.queries[:4], SearchConfig(k=10, queue_size=40)
            )

        outcome = run_virtual(main())
        assert "schedule" not in outcome.detail
        assert replica.stats()["streams"] == 1
        assert "device_timeline" not in replica.stats()

    def test_streamed_replica_reports_schedule(self, served):
        from repro.serve.clock import run_virtual

        ds, graph = served
        replica = Replica(SimulatedGpuEngine(graph, ds.data), streams=4)

        async def main():
            return await replica.run_batch(
                ds.queries[:4], SearchConfig(k=10, queue_size=40)
            )

        outcome = run_virtual(main())
        sched = outcome.detail["schedule"]
        assert all(s in range(4) for s in sched["streams"])
        assert outcome.service_seconds == pytest.approx(sched["makespan_s"])
        stats = replica.stats()
        assert stats["streams"] == 4
        assert stats["device_timeline"]["batches"] == 1


class TestAutoChunks:
    def test_small_batches_stay_whole(self, served):
        ds, graph = served
        engine = SimulatedGpuEngine(graph, ds.data)
        # The smoke batches: a few KB, latency-dominated -> no split.
        assert engine.auto_num_chunks(int(ds.queries[:8].nbytes), 4) == 1
        assert engine.auto_num_chunks(0, 4) == 1
        assert engine.auto_num_chunks(1 << 20, 1) == 1

    def test_large_batches_split_toward_cap(self, served):
        ds, graph = served
        engine = SimulatedGpuEngine(graph, ds.data)
        assert engine.auto_num_chunks(1 << 30, 8) == 8
        # Monotone in bytes.
        prev = 1
        for shift in range(10, 31, 2):
            n = engine.auto_num_chunks(1 << shift, 64)
            assert n >= prev
            prev = n


class TestStreamDeterminism:
    def test_streams4_loadtest_bit_identical(self, served):
        ds, graph = served
        cfg = make_config()
        a = loadtest(ds, graph, cfg, 100_000, streams=4)
        b = loadtest(ds, graph, cfg, 100_000, streams=4)
        assert a.to_dict() == b.to_dict()
        assert a.metrics == b.metrics  # full ServeMetrics dict, bitwise


class TestStreamScaling:
    """The acceptance gate: streams=4 sustains >= 1.3x the streams=1
    throughput at overload, same SLO config, identical recall."""

    OVERLOAD_QPS = 200_000

    @pytest.fixture(scope="class")
    def reports(self, served):
        ds, graph = served
        cfg = make_config()
        return {
            s: loadtest(ds, graph, cfg, self.OVERLOAD_QPS, streams=s)
            for s in (1, 2, 4)
        }

    def test_throughput_scales(self, reports):
        assert reports[4].achieved_qps > 1.3 * reports[1].achieved_qps
        assert reports[2].achieved_qps >= reports[1].achieved_qps
        assert reports[4].achieved_qps >= reports[2].achieved_qps

    def test_latency_improves_under_overlap(self, reports):
        assert reports[4].p99_latency_s < reports[1].p99_latency_s

    def test_recall_unchanged_by_streaming(self, reports):
        # Same lockstep engine, fixed tier: results must be identical.
        assert reports[4].recall == reports[1].recall
        assert (
            reports[4].metrics["tiers"] == reports[1].metrics["tiers"]
        )

    def test_metrics_expose_overlap(self, reports):
        streams = reports[4].metrics["streams"]
        assert streams["device_batches"] > 0
        assert streams["overlap_efficiency"] > 1.0
        serial = reports[1].metrics["streams"]
        assert serial["overlap_efficiency"] == pytest.approx(1.0)


class TestWiring:
    def test_sharded_engine_rejects_streams(self):
        """A caller-supplied engine without ``chunked_batch`` cannot be
        priced on a stream timeline, so it stays at one stream."""

        class WholeBatchEngine:
            name = "whole0"

            def run_batch(self, queries, config):
                raise AssertionError("never dispatched")

        with pytest.raises(ValueError, match="chunked_batch"):
            Replica(WholeBatchEngine(), streams=4)
        with pytest.raises(ValueError):
            Replica(WholeBatchEngine(), streams=0)
        assert Replica(WholeBatchEngine()).streams == 1

    def test_batcher_inflight_tracks_stream_pool(self, served):
        ds, graph = served
        server = build_server(graph, ds.data, make_config(), num_replicas=2, streams=4)
        assert server.batcher.max_inflight == 8
        serial = build_server(graph, ds.data, make_config())
        assert serial.batcher.max_inflight == 1

    def test_cli_exposes_streams(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["loadtest", "--dataset", "sift", "--streams", "4"]
        )
        assert args.streams == 4
        default = parser.parse_args(["loadtest", "--dataset", "sift"])
        assert default.streams == 1

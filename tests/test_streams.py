"""Stream scheduler and device-timeline tests.

Covers the pinned equivalences (StreamScheduler with one stream per
chunk == the legacy ``pipelined_time`` recurrence, bit-for-bit), the
monotonicity/lower-bound properties from the issue, and the online
:class:`DeviceTimeline` contention model.
"""

import numpy as np
import pytest

from repro.simt.pipeline import ChunkTiming, pipelined_time, synchronous_time
from repro.simt.streams import (
    DTOH,
    HTOD,
    KERNEL,
    ChunkWork,
    DeviceTimeline,
    StreamOp,
    StreamScheduler,
    copy_stream_ops,
    double_buffer_ops,
)


def random_chunks(rng, n):
    return [ChunkTiming(*rng.uniform(0.01, 2.0, size=3)) for _ in range(n)]


class TestSchedulerEquivalences:
    def test_one_stream_per_chunk_is_pipelined_time_bitwise(self):
        """The exact regression pin: with >= one stream per chunk, the
        scheduler reproduces the legacy recurrence bit-for-bit."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            chunks = random_chunks(rng, int(rng.integers(1, 9)))
            expect = pipelined_time(chunks)
            for extra in (0, 1, 3):
                timeline = StreamScheduler(
                    num_streams=len(chunks) + extra
                ).schedule_chunks(chunks)
                assert timeline.makespan == expect  # bitwise, no tolerance

    def test_single_stream_serializes_to_synchronous(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            chunks = random_chunks(rng, 6)
            timeline = StreamScheduler(num_streams=1).schedule_chunks(chunks)
            assert timeline.makespan == pytest.approx(
                synchronous_time(chunks), rel=1e-12
            )

    def test_empty(self):
        timeline = StreamScheduler(num_streams=2).schedule_chunks([])
        assert timeline.makespan == 0.0
        assert timeline.ops == []


class TestSchedulerProperties:
    def test_makespan_monotone_in_streams_and_lower_bounded(self):
        """Makespan never increases with more streams and never beats
        the busiest engine (the issue's property test)."""
        rng = np.random.default_rng(13)
        for _ in range(60):
            chunks = random_chunks(rng, int(rng.integers(1, 10)))
            bound = max(
                sum(c.htod for c in chunks),
                sum(c.kernel for c in chunks),
                sum(c.dtoh for c in chunks),
            )
            prev = None
            for streams in range(1, 9):
                makespan = (
                    StreamScheduler(num_streams=streams)
                    .schedule_chunks(chunks)
                    .makespan
                )
                assert makespan >= bound - 1e-12
                if prev is not None:
                    assert makespan <= prev + 1e-15
                prev = makespan

    def test_deterministic_replay(self):
        rng = np.random.default_rng(14)
        chunks = random_chunks(rng, 7)
        a = StreamScheduler(num_streams=3).schedule_chunks(chunks)
        b = StreamScheduler(num_streams=3).schedule_chunks(chunks)
        assert [(o.start, o.finish) for o in a.ops] == [
            (o.start, o.finish) for o in b.ops
        ]

    def test_engine_busy_and_occupancy_views(self):
        chunks = [ChunkTiming(htod=0.1, kernel=1.0, dtoh=0.1)] * 4
        timeline = StreamScheduler(num_streams=4).schedule_chunks(chunks)
        assert timeline.engine_busy[KERNEL] == pytest.approx(4.0)
        assert timeline.overlap_gain() > 1.0
        assert set(timeline.stream_busy) == {0, 1, 2, 3}
        assert all(0.0 < v <= timeline.makespan for v in timeline.stream_busy.values())


class TestSchedulerValidation:
    def test_rejects_bad_stream_count(self):
        with pytest.raises(ValueError):
            StreamScheduler(num_streams=0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            StreamScheduler().schedule(
                [StreamOp(0, KERNEL, -1.0, stream=0)]
            )

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            StreamScheduler().schedule([StreamOp(0, "memset", 1.0, stream=0)])

    def test_rejects_forward_dependency(self):
        ops = [StreamOp(0, KERNEL, 1.0, stream=0, deps=(1,))]
        with pytest.raises(ValueError):
            StreamScheduler().schedule(ops)

    def test_rejects_duplicate_op_id(self):
        ops = [
            StreamOp(0, HTOD, 1.0, stream=0),
            StreamOp(0, DTOH, 1.0, stream=0),
        ]
        with pytest.raises(ValueError):
            StreamScheduler().schedule(ops)


class TestOpBuilders:
    def test_double_buffer_chain_structure(self):
        chunks = [ChunkWork(0.1, 0.5, 0.1, warps=4)] * 3
        ops = double_buffer_ops(chunks, num_streams=2)
        assert len(ops) == 9
        for i in range(3):
            htod, kernel, dtoh = ops[3 * i : 3 * i + 3]
            assert (htod.kind, kernel.kind, dtoh.kind) == (HTOD, KERNEL, DTOH)
            assert htod.stream == kernel.stream == dtoh.stream == i % 2
            assert kernel.deps == (htod.op_id,)
            assert dtoh.deps == (kernel.op_id,)
            assert kernel.reads == htod.writes
            assert kernel.warps == 4

    def test_copy_stream_layout(self):
        chunks = [ChunkWork(0.1, 0.5, 0.1)] * 4
        ops = copy_stream_ops(chunks, num_streams=3)
        transfers = [op for op in ops if op.kind != KERNEL]
        kernels = [op for op in ops if op.kind == KERNEL]
        assert all(op.stream == 0 for op in transfers)
        assert all(op.stream in (1, 2) for op in kernels)
        assert all(op.deps for op in kernels)
        with pytest.raises(ValueError):
            copy_stream_ops(chunks, num_streams=1)


class TestDeviceTimeline:
    def test_single_batch_serial_equivalence(self):
        timeline = DeviceTimeline("v100", num_streams=4)
        sched = timeline.submit_batch(
            [ChunkWork(htod=1.0, kernel=5.0, dtoh=0.5, warps=8)], now=0.0
        )
        assert sched.finish_s == 6.5
        assert sched.makespan_s == sched.serial_s
        assert sched.kernel_slowdown == 1.0

    def test_small_kernels_overlap_freely(self):
        """Fig. 11's story: tiny warp demand -> concurrent batches share
        the SMs at full speed."""
        timeline = DeviceTimeline("v100", num_streams=4)
        a = timeline.submit_batch(
            [ChunkWork(htod=0.0, kernel=1.0, dtoh=0.0, warps=8)], now=0.0
        )
        b = timeline.submit_batch(
            [ChunkWork(htod=0.0, kernel=1.0, dtoh=0.0, warps=8)], now=0.0
        )
        assert a.finish_s == pytest.approx(1.0)
        assert b.finish_s == pytest.approx(1.0)  # not 2.0: full overlap
        assert b.kernel_slowdown == 1.0

    def test_capacity_saturation_slows_newcomer(self):
        timeline = DeviceTimeline("v100", num_streams=4)
        full = timeline.capacity_warps
        a = timeline.submit_batch(
            [ChunkWork(htod=0.0, kernel=1.0, dtoh=0.0, warps=full)], now=0.0
        )
        b = timeline.submit_batch(
            [ChunkWork(htod=0.0, kernel=1.0, dtoh=0.0, warps=full)], now=0.0
        )
        # Incumbent keeps its committed finish; the newcomer runs at half
        # rate while both are resident, then full speed alone.
        assert a.finish_s == pytest.approx(1.0)
        assert b.finish_s == pytest.approx(1.5)
        assert b.kernel_slowdown == pytest.approx(2.0)

    def test_copy_engines_serialize_in_order(self):
        timeline = DeviceTimeline("v100", num_streams=2)
        a = timeline.submit_batch(
            [ChunkWork(htod=1.0, kernel=0.1, dtoh=0.0)], now=0.0
        )
        b = timeline.submit_batch(
            [ChunkWork(htod=1.0, kernel=0.1, dtoh=0.0)], now=0.0
        )
        # One HtoD engine: the second batch's copy waits for the first.
        assert a.ops[0].finish == pytest.approx(1.0)
        assert b.ops[0].start == pytest.approx(1.0)

    def test_deterministic_and_validates(self):
        def run():
            timeline = DeviceTimeline("v100", num_streams=3)
            out = []
            for i in range(5):
                sched = timeline.submit_batch(
                    [ChunkWork(htod=0.01, kernel=0.2, dtoh=0.01, warps=4)] * 2,
                    now=0.05 * i,
                )
                out.append(sched.to_dict())
            return out, timeline.stats()

        assert run() == run()
        with pytest.raises(ValueError):
            DeviceTimeline("v100", num_streams=0)
        with pytest.raises(ValueError):
            DeviceTimeline("v100", num_streams=2).submit_batch([], now=-1.0)

    def test_stats_shape(self):
        timeline = DeviceTimeline("v100", num_streams=2)
        timeline.submit_batch(
            [ChunkWork(htod=0.1, kernel=1.0, dtoh=0.1, warps=4)] * 2, now=0.0
        )
        stats = timeline.stats()
        assert stats["streams"] == 2
        assert stats["batches"] == 1
        assert len(stats["stream_occupancy"]) == 2
        assert stats["overlap_efficiency"] > 0.0
        assert 0.0 <= stats["transfer_hidden_fraction"] <= 1.0


class TestPipelineIntegration:
    def test_pipeline_batch_scheduled_through_streams(
        self, small_dataset, small_graph
    ):
        from repro.core.config import SearchConfig
        from repro.core.gpu_kernel import GpuSongIndex
        from repro.simt.pipeline import pipeline_batch

        index = GpuSongIndex(small_graph, small_dataset.data)
        cfg = SearchConfig(k=10, queue_size=40)
        _, timing = pipeline_batch(index, small_dataset.queries, cfg, num_chunks=4)
        assert timing["num_streams"] == 4
        # The reported makespan is exactly the legacy recurrence.
        assert timing["pipelined_seconds"] == pipelined_time(timing["chunks"])
        assert timing["timeline"].makespan == timing["pipelined_seconds"]
        # Fewer streams than chunks: still a valid (slower or equal) plan.
        _, constrained = pipeline_batch(
            index, small_dataset.queries, cfg, num_chunks=4, num_streams=2
        )
        assert (
            constrained["pipelined_seconds"] >= timing["pipelined_seconds"] - 1e-15
        )

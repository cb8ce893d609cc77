"""Stream scheduler and device-timeline tests.

Covers the pinned equivalences (``StreamScheduler.schedule_chunks`` with
one stream per chunk == the closed-form copy/compute recurrence below,
bit-for-bit; with one stream == the synchronous sum), the monotonicity
and lower-bound properties, the chunk split and ``pipeline_batch``, and
the online :class:`DeviceTimeline` contention model.
"""

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import GpuSongIndex
from repro.simt.streams import (
    ChunkWork,
    DeviceTimeline,
    StreamScheduler,
    pipeline_batch,
    split_counts,
)


def pipelined_time(chunks):
    """Oracle: the closed-form copy/compute pipeline recurrence.

    One copy engine per direction and one compute engine.  Chunk ``i``'s
    kernel starts once its HtoD and the previous kernel finished; its
    DtoH once its kernel and the previous DtoH finished.
    """
    htod_free = kernel_free = dtoh_free = 0.0
    for c in chunks:
        htod_free += c.htod
        kernel_free = max(kernel_free, htod_free) + c.kernel
        dtoh_free = max(dtoh_free, kernel_free) + c.dtoh
    return dtoh_free


def synchronous_time(chunks):
    """Makespan without any overlap (the paper's execution model)."""
    return sum(c.htod + c.kernel + c.dtoh for c in chunks)


def pipelined(chunks):
    """``schedule_chunks`` with one stream per chunk."""
    return StreamScheduler(num_streams=len(chunks)).schedule_chunks(chunks)


def random_chunks(rng, n):
    return [ChunkWork(*rng.uniform(0.01, 2.0, size=3)) for _ in range(n)]


class TestSchedulerEquivalences:
    def test_one_stream_per_chunk_is_pipelined_time_bitwise(self):
        """The exact regression pin: with >= one stream per chunk, the
        scheduler reproduces the recurrence bit-for-bit."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            chunks = random_chunks(rng, int(rng.integers(1, 9)))
            expect = pipelined_time(chunks)
            for extra in (0, 1, 3):
                makespan = StreamScheduler(
                    num_streams=len(chunks) + extra
                ).schedule_chunks(chunks)
                assert makespan == expect  # bitwise, no tolerance

    def test_single_stream_serializes_to_synchronous(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            chunks = random_chunks(rng, 6)
            makespan = StreamScheduler(num_streams=1).schedule_chunks(chunks)
            # Equal as a schedule; the summation order differs.
            assert makespan == pytest.approx(synchronous_time(chunks), rel=1e-12)

    def test_empty(self):
        assert StreamScheduler(num_streams=2).schedule_chunks([]) == 0.0
        assert pipelined_time([]) == 0.0


class TestSchedule:
    def test_empty(self):
        assert pipelined_time([]) == 0.0
        assert synchronous_time([]) == 0.0
        assert StreamScheduler(num_streams=1).schedule_chunks([]) == 0.0

    def test_single_chunk_no_gain(self):
        chunks = [ChunkWork(htod=1.0, kernel=5.0, dtoh=0.5)]
        assert pipelined(chunks) == pytest.approx(6.5)
        # The tier prices every batch on two streams, one chunk included:
        # that is the serial sum, bit for bit.
        assert StreamScheduler(num_streams=2).schedule_chunks(chunks) == (
            synchronous_time(chunks)
        )

    def test_perfect_overlap_kernel_bound(self):
        """With kernels >> transfers, total ≈ first HtoD + all kernels +
        last DtoH."""
        chunks = [ChunkWork(htod=0.1, kernel=5.0, dtoh=0.1)] * 4
        assert pipelined(chunks) == pytest.approx(0.1 + 4 * 5.0 + 0.1)
        assert synchronous_time(chunks) == pytest.approx(4 * 5.2)

    def test_transfer_bound_pipelines_to_copy_engine(self):
        chunks = [ChunkWork(htod=5.0, kernel=0.1, dtoh=0.1)] * 3
        assert pipelined(chunks) == pytest.approx(15.0 + 0.2, abs=0.05)

    def test_never_worse_than_synchronous(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            chunks = random_chunks(rng, 6)
            assert pipelined(chunks) <= synchronous_time(chunks) + 1e-12

    def test_never_better_than_critical_engine(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            chunks = random_chunks(rng, 6)
            t = pipelined(chunks)
            assert t >= sum(c.kernel for c in chunks) - 1e-12
            assert t >= sum(c.htod for c in chunks) - 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pipelined([ChunkWork(htod=-1, kernel=1, dtoh=1)])


class TestSchedulerProperties:
    def test_makespan_monotone_in_streams_and_lower_bounded(self):
        """Makespan never increases with more streams and never beats
        the busiest engine."""
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
                makespan = StreamScheduler(num_streams=streams).schedule_chunks(
                    chunks
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
        assert a == b


class TestSchedulerValidation:
    def test_rejects_bad_stream_count(self):
        with pytest.raises(ValueError):
            StreamScheduler(num_streams=0)

    def test_rejects_negative_duration(self):
        for bad in (
            ChunkWork(htod=-1.0, kernel=1.0, dtoh=1.0),
            ChunkWork(htod=1.0, kernel=-1.0, dtoh=1.0),
            ChunkWork(htod=1.0, kernel=1.0, dtoh=-1.0),
        ):
            with pytest.raises(ValueError):
                StreamScheduler().schedule_chunks([bad])


class TestSplit:
    def test_even_split(self):
        assert split_counts(100, 4) == [25, 25, 25, 25]

    def test_remainder_spread(self):
        assert split_counts(10, 3) == [4, 3, 3]

    def test_more_chunks_than_items(self):
        assert split_counts(2, 5) == [1, 1]
        # An empty batch is one empty chunk: one launch, priced at zero.
        assert split_counts(0, 4) == [0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_counts(10, 0)


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
        # One HtoD engine: the second batch's copy waits for the first,
        # though it has a stream of its own.
        assert a.finish_s == pytest.approx(1.1)
        assert b.streams != a.streams
        assert b.finish_s == pytest.approx(2.1)

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


class TestPipelineBatch:
    def test_results_identical_to_sync(self, small_dataset, small_graph):
        index = GpuSongIndex(small_graph, small_dataset.data)
        cfg = SearchConfig(k=10, queue_size=40)
        empty = np.empty((0, small_dataset.queries.shape[1]), np.float32)
        for queries in (small_dataset.queries, empty):
            piped, timing = pipeline_batch(index, queries, cfg, num_chunks=4)
            sync, _ = index.search_batch(queries, cfg)
            assert [[v for _, v in r] for r in piped] == [
                [v for _, v in r] for r in sync
            ]
            assert timing["overlap_gain"] >= 1.0
        # The last input was the empty batch: one empty chunk, no time,
        # no overlap to gain and nothing served.
        assert piped == [] and timing["pipelined_seconds"] == 0.0
        assert timing["overlap_gain"] == 1.0 and timing["qps"] == 0.0
        assert len(timing["chunks"]) == 1

    def test_gain_reported(self, small_dataset, small_graph):
        index = GpuSongIndex(small_graph, small_dataset.data)
        cfg = SearchConfig(k=10, queue_size=40)
        _, timing = pipeline_batch(index, small_dataset.queries, cfg, num_chunks=4)
        assert timing["pipelined_seconds"] <= timing["synchronous_seconds"]
        assert timing["qps"] > 0
        assert len(timing["chunks"]) == 4


class TestPipelineIntegration:
    def test_pipeline_batch_scheduled_through_streams(
        self, small_dataset, small_graph
    ):
        """The ablation's pins on priced chunks: one stream per chunk is
        the recurrence bit-for-bit, one stream is the synchronous sum."""
        index = GpuSongIndex(small_graph, small_dataset.data)
        cfg = SearchConfig(
            k=10, queue_size=40, selected_insertion=True, visited_deletion=True
        )
        for num_chunks in (1, 2, 4, 8):
            _, timing = pipeline_batch(
                index, small_dataset.queries, cfg, num_chunks=num_chunks
            )
            chunks = timing["chunks"]
            assert len(chunks) == num_chunks
            assert timing["pipelined_seconds"] == pipelined_time(chunks)
            assert timing["synchronous_seconds"] == synchronous_time(chunks)
            one_stream = StreamScheduler(num_streams=1).schedule_chunks(chunks)
            assert one_stream == pytest.approx(
                timing["synchronous_seconds"], rel=1e-12, abs=1e-15
            )

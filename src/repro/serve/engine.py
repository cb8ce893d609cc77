"""Serving engines: uniform batch execution + simulated-GPU pricing.

The serving layer needs two things from an index: *results* for a batch
of queries, and a *service time* to charge against the simulated clock.
Both come from the :class:`~repro.core.gpu_kernel.GpuSongIndex` an
engine wraps:

- results come from the index searcher's lockstep engine
  (:meth:`SongSearcher.batched <repro.core.song.SongSearcher.batched>`)
  at every batch size, so a serving config needs an exact visited
  backend;
- service time comes from the per-lane operation records
  (:class:`~repro.core.song.SearchStats`) that engine fills, handed to
  :meth:`GpuSongIndex.price <repro.core.gpu_kernel.GpuSongIndex.price>`,
  the one launch ``GpuSongIndex.search_batch`` itself is priced by.  A
  served batch therefore costs exactly what the metered index reports
  for the same queries: same warp grouping, same kernel and transfer
  times, same stage cycles.  What the engines add is chunked pricing
  for the stream model and a distance profile other than the search
  metric's (the out-of-core tier's PQ store).

Three engines cover the index zoo:

- :class:`SimulatedGpuEngine` — one graph + dataset on one device;
- :class:`ShardedServeEngine` — fan-out over a
  :class:`~repro.core.sharding.ShardedSongIndex` (service time = slowest
  shard, per-shard attribution in ``detail``);
- :class:`OnlineServeEngine` — a growable
  :class:`~repro.core.online.OnlineSongIndex` supporting mixed
  search/insert traffic with snapshot caching.
"""

from __future__ import annotations

# lint: hot-path

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import DistanceProfile, GpuSongIndex
from repro.core.online import OnlineSongIndex
from repro.core.sharding import ShardedSongIndex
from repro.core.song import SearchStats
from repro.graphs.storage import FixedDegreeGraph
from repro.simt.pipeline import split_counts
from repro.simt.streams import ChunkWork

__all__ = [
    "BatchServiceResult",
    "SimulatedGpuEngine",
    "ShardedServeEngine",
    "OnlineServeEngine",
]


@dataclass
class BatchServiceResult:
    """Outcome of one engine batch: results plus the modelled timing.

    ``service_seconds`` is what the device is busy for (the replica
    serializes batches on it); ``detail`` carries engine-specific
    attribution (kernel/transfer split, per-shard stats).
    """

    results: List[List[Tuple[float, int]]]
    service_seconds: float
    detail: Dict[str, object] = field(default_factory=dict)


class SimulatedGpuEngine:
    """One replica: a proximity graph + dataset on one simulated device.

    Parameters
    ----------
    graph:
        Fixed-degree proximity graph.
    data:
        ``(n, d)`` float32 dataset — what :meth:`run_batch` searches.
        The out-of-core tier hands over its store's traversal array
        (packed signatures or decoded PQ rows) and only prices with it.
    device:
        Simulated device preset name.
    name:
        Replica label used in responses and metrics.
    resident_bytes / allow_oversubscription:
        Forwarded to :class:`GpuSongIndex`'s capacity ledger — an
        over-budget resident footprint raises
        :class:`~repro.simt.memory.DeviceMemoryExceeded` unless
        oversubscription is explicitly allowed.
    profile:
        Distance profile the lanes are priced under.  Defaults to the
        search metric over ``data``'s rows; the out-of-core tier passes
        its compressed store (for PQ, ``data`` is decoded rows standing
        in for the codes the device holds).
    """

    def __init__(
        self,
        graph: FixedDegreeGraph,
        data: np.ndarray,
        device: str = "v100",
        name: str = "gpu0",
        resident_bytes: Optional[int] = None,
        allow_oversubscription: bool = False,
        profile=None,
    ) -> None:
        self.profile = profile
        self.index = GpuSongIndex(
            graph,
            data,
            device=device,
            resident_bytes=resident_bytes,
            allow_oversubscription=allow_oversubscription,
        )
        self.batched = self.index.searcher.batched()
        self.name = name

    @property
    def device(self):
        return self.index.device

    def run_batch(
        self, queries: np.ndarray, config: SearchConfig
    ) -> BatchServiceResult:
        """Search a ``(B, d)`` batch; price it on the simulated device."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        results, stats = self.batched.search_batch_with_stats(queries, config)
        seconds, detail = self.estimate_batch_seconds(queries, config, stats)
        return BatchServiceResult(results, seconds, detail)

    # -- pricing ---------------------------------------------------------

    def chunk_work(
        self,
        queries: np.ndarray,
        config: SearchConfig,
        stats: Sequence[SearchStats],
        num_chunks: int = 1,
    ) -> Tuple[List[ChunkWork], Dict[str, object]]:
        """Price a batch as ``num_chunks`` double-buffer chunks.

        Each chunk is one :meth:`GpuSongIndex.price` launch over its own
        lanes' records — kernel, transfers from its own byte counts — plus
        its SM demand as resident warps: the inputs
        :class:`~repro.simt.streams.DeviceTimeline` schedules.  With
        ``num_chunks=1`` the single chunk is the whole-batch launch.
        """
        profile = self.profile
        if profile is None:
            profile = DistanceProfile.for_metric(config.metric, int(queries.shape[1]))
        counts = split_counts(len(stats), num_chunks) if len(stats) else [0]
        chunks: List[ChunkWork] = []
        start = 0
        for i, count in enumerate(counts):  # lint: allow(hot-loop) — O(chunks), not O(lanes)
            priced = self.index.price(stats[start : start + count], config, profile)
            start += count
            chunks.append(
                ChunkWork(
                    htod=priced.htod_seconds,
                    kernel=priced.kernel_seconds,
                    dtoh=priced.dtoh_seconds,
                    warps=max(1, self.index.warp_demand(config, count)),
                    label=f"chunk{i}",
                )
            )
        detail = {
            "kernel_seconds": sum(c.kernel for c in chunks),
            "htod_seconds": sum(c.htod for c in chunks),
            "dtoh_seconds": sum(c.dtoh for c in chunks),
            "device": self.device.name,
            "num_chunks": len(chunks),
        }
        return chunks, detail

    def auto_num_chunks(self, htod_bytes: int, max_chunks: int) -> int:
        """Cost-model-optimal double-buffer split for one batch.

        Splitting a batch into ``n`` chunks lets later chunks' HtoD hide
        under earlier chunks' kernels, shrinking the exposed first-chunk
        copy to ``latency + bytes/(n·bw)`` — but every extra chunk adds
        one PCIe latency on each in-order copy engine.  Balancing the
        two gives ``n* ≈ sqrt(bytes / (bw · latency))``: small batches
        (latency-dominated transfers, the paper's Fig. 10 regime) stay
        whole, multi-megabyte batches split toward ``max_chunks``.
        """
        if max_chunks <= 1 or htod_bytes <= 0:
            return 1
        device = self.device
        lat = device.pcie_latency_us * 1e-6
        if lat <= 0.0:
            return max_chunks
        bw = device.pcie_bandwidth_gbs * 1e9
        n = int(round((htod_bytes / (bw * lat)) ** 0.5))
        return max(1, min(max_chunks, n))

    def chunked_batch(
        self,
        queries: np.ndarray,
        config: SearchConfig,
        num_chunks: Optional[int] = None,
        max_chunks: int = 1,
    ) -> Tuple[List[List[Tuple[float, int]]], List[ChunkWork], Dict[str, object]]:
        """Search a batch and return per-chunk priced work for streaming.

        The multi-stream replica path: results come from the lockstep
        engine exactly as :meth:`run_batch`, but the pricing is split
        into chunks the caller schedules on a
        :class:`~repro.simt.streams.DeviceTimeline` instead of a single
        serial charge.  ``num_chunks=None`` picks the split with
        :meth:`auto_num_chunks` (bounded by ``max_chunks``, typically
        the replica's stream count).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        results, stats = self.batched.search_batch_with_stats(queries, config)
        if num_chunks is None:
            num_chunks = self.auto_num_chunks(int(queries.nbytes), max_chunks)
        chunks, detail = self.chunk_work(queries, config, stats, num_chunks)
        return results, chunks, detail

    def estimate_batch_seconds(
        self,
        queries: np.ndarray,
        config: SearchConfig,
        stats: Sequence[SearchStats],
    ) -> Tuple[float, Dict[str, object]]:
        """Modelled launch seconds for a batch with the given lane stats."""
        chunks, detail = self.chunk_work(queries, config, stats, num_chunks=1)
        c = chunks[0]
        return c.kernel + c.htod + c.dtoh, detail


class ShardedServeEngine:
    """Scatter-gather over a sharded index; slowest shard sets the time."""

    def __init__(self, index: ShardedSongIndex, name: str = "sharded0") -> None:
        self.index = index
        self.name = name

    def run_batch(
        self, queries: np.ndarray, config: SearchConfig
    ) -> BatchServiceResult:
        """Fan a batch across every shard and merge the top-k lists."""
        results, timing = self.index.search_batch(queries, config)
        per_shard = timing["per_shard"]
        detail = {
            "per_shard": per_shard,
            "slowest_shard": timing["slowest_shard"],
            "shard_imbalance": timing["shard_imbalance"],
        }
        return BatchServiceResult(results, timing["wall_seconds"], detail)


class OnlineServeEngine:
    """A growable index serving mixed search and insert traffic.

    Searches run against a frozen snapshot of the current graph, priced
    like :class:`SimulatedGpuEngine`; the snapshot engine is cached keyed
    on the index's write ``generation`` (not size or object identity —
    pruning rewires existing vertices without changing ``len``).
    Refreshing a snapshot is not free: the new graph + data must reach
    the search device, and the stream model charges that once per
    refresh as a transfer contending with search traffic
    (:meth:`consume_snapshot_dtoh_seconds`).  Inserts are priced as one
    ``ef_construction`` greedy search, a hand-written operation record (the
    insertion search dominates an insert's cost; the bidirectional
    connect is a few degree-bounded updates).
    """

    def __init__(self, index: OnlineSongIndex, name: str = "online0") -> None:
        self.index = index
        self.name = name
        # The snapshot cache is only touched while the owning Replica
        # holds its rw-lock (read side for lazy rebuild during searches,
        # write side for inserts); the aio analyzer enforces the declared
        # guard on any future coroutine that mutates these directly.
        self._snapshot_engine: Optional[SimulatedGpuEngine] = None  # aio: guarded-by(Replica._rw)
        self._snapshot_generation = -1  # aio: guarded-by(Replica._rw)
        self._snapshot_dtoh_owed = 0.0  # aio: guarded-by(Replica._rw)

    @property
    def device(self):
        """Device preset the snapshots are priced on."""
        return self.index.device

    def _engine(self) -> SimulatedGpuEngine:
        if (
            self._snapshot_engine is None
            or self._snapshot_generation != self.index.generation
        ):
            self._snapshot_engine = SimulatedGpuEngine(
                self.index.snapshot_graph(),
                self.index.data.copy(),
                device=self.index.device,
                name=self.name,
            )
            self._snapshot_generation = self.index.generation
            gpu = self._snapshot_engine.index
            self._snapshot_dtoh_owed = gpu.launcher.cost_model.transfer_time(
                gpu.index_memory_bytes() + gpu.dataset_memory_bytes()
            )
        return self._snapshot_engine

    def consume_snapshot_dtoh_seconds(self) -> float:
        """Transfer seconds owed for a snapshot refreshed since last call.

        Non-zero exactly once per rebuilt snapshot; the multi-stream
        replica charges it on the DtoH copy engine ahead of the batch's
        own transfers, so snapshot shipping contends with search streams
        instead of being free.
        """
        owed = self._snapshot_dtoh_owed
        self._snapshot_dtoh_owed = 0.0
        return owed

    def run_batch(
        self, queries: np.ndarray, config: SearchConfig
    ) -> BatchServiceResult:
        """Search the current snapshot (built lazily, cached until write)."""
        return self._engine().run_batch(queries, config)

    def chunked_batch(
        self,
        queries: np.ndarray,
        config: SearchConfig,
        num_chunks: Optional[int] = None,
        max_chunks: int = 1,
    ):
        """Chunked pricing against the current snapshot (streams path)."""
        return self._engine().chunked_batch(
            queries, config, num_chunks, max_chunks
        )

    def run_inserts(self, vectors: np.ndarray) -> BatchServiceResult:
        """Ingest ``(B, d)`` vectors; returns assigned ids in ``detail``.

        Service time models each insert as an ``ef_construction``-deep
        greedy search on the pre-insert snapshot.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=np.float32))
        size_before = len(self.index)
        seconds = 0.0
        if size_before > 0:
            engine = self._engine()
            ef = self.index.ef_construction
            synthetic = SearchStats()
            synthetic.searches = 1
            synthetic.iterations = ef
            synthetic.frontier_pops = ef
            synthetic.rows_fetched = ef
            synthetic.visited_tests = ef * self.index.max_degree
            synthetic.distance_computations = ef * self.index.max_degree
            synthetic.topk_updates = ef
            synthetic.visited_inserts = ef
            synthetic.frontier_pushes = ef + 1
            seconds, _ = engine.estimate_batch_seconds(
                vectors,
                SearchConfig(k=min(ef, size_before), queue_size=ef),
                [synthetic] * len(vectors),
            )
        ids = self.index.add(vectors)
        # No manual invalidation: the next _engine() call sees a newer
        # index generation and rebuilds (and re-prices) the snapshot.
        return BatchServiceResult(
            results=[],
            service_seconds=seconds,
            detail={"inserted_ids": ids, "size": len(self.index)},
        )

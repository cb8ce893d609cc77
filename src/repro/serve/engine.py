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

:class:`SimulatedGpuEngine` is that engine: one static graph + dataset
on one device.  The out-of-core tier's
:class:`~repro.tiered.engine.TieredServeEngine` is the other replica
engine; the server only ever searches.
"""

from __future__ import annotations

# lint: hot-path

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.batched import LaneResults
from repro.core.config import SearchConfig
from repro.core.gpu_kernel import DistanceProfile, GpuSongIndex
from repro.core.song import SearchStats
from repro.graphs.storage import FixedDegreeGraph
from repro.simt.streams import ChunkWork, split_counts

__all__ = ["BatchServiceResult", "SimulatedGpuEngine"]


@dataclass
class BatchServiceResult:
    """Outcome of one engine batch: results plus the modelled timing.

    ``service_seconds`` is what the device is busy for (the replica
    serializes batches on it); ``detail`` carries engine-specific
    attribution (kernel/transfer split, stream schedule, tier stats).
    ``results`` holds one ``(distance, id)`` list per query: the
    engines here hand over the lockstep engine's
    :class:`~repro.core.batched.LaneResults`.
    """

    results: Sequence[Sequence[Tuple[float, int]]]
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
        counts = split_counts(len(stats), num_chunks)
        chunks: List[ChunkWork] = []
        start = 0
        for count in counts:  # lint: allow(hot-loop) — O(chunks), not O(lanes)
            priced = self.index.price(stats[start : start + count], config, profile)
            start += count
            chunks.append(
                ChunkWork(
                    htod=priced.htod_seconds,
                    kernel=priced.kernel_seconds,
                    dtoh=priced.dtoh_seconds,
                    warps=max(1, self.index.warp_demand(config, count)),
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
    ) -> Tuple[LaneResults, List[ChunkWork], Dict[str, object]]:
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

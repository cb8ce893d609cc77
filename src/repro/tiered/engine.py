"""Serving engine for the out-of-core tier.

:class:`TieredServeEngine` is the replica-facing engine: results come
from the :class:`~repro.tiered.index.TieredIndex` pipeline, and both
kernels of a chunk are priced from operation records by the one launch
every engine uses (:meth:`GpuSongIndex.price
<repro.core.gpu_kernel.GpuSongIndex.price>`); only the distance profile
differs.  Traversal is a :class:`~repro.serve.engine.SimulatedGpuEngine`
whose profile is the compressed store itself — its flops per distance
(XOR+popcount for signatures, table lookups for PQ), words per point
and query upload width, not those of PQ's decoded rows.  The exact
re-rank is one record per lane (a bulk distance over the fetched panel,
``k`` result-heap updates) under the full-precision metric profile.
Around the kernels go the re-rank's page fetches, coalesced per chunk
into one staged PCIe transfer and filtered through the LRU
:class:`~repro.tiered.cache.PageCache`.  With ``prefetch=True`` a batch
is split into pipeline chunks scheduled on two streams, so chunk
``i+1``'s page fetches overlap chunk ``i``'s traversal+re-rank kernel;
with ``prefetch=False`` everything is one serial chunk — the baseline
the overlap benchmark gates against.  Results are identical either way;
only the clock differs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import DistanceProfile
from repro.core.song import SearchStats
from repro.graphs.storage import FixedDegreeGraph
from repro.serve.engine import BatchServiceResult, SimulatedGpuEngine
from repro.simt.pipeline import split_counts
from repro.simt.streams import ChunkWork, StreamScheduler
from repro.tiered.cache import PageCache
from repro.tiered.config import TieredConfig
from repro.tiered.index import TieredIndex

__all__ = ["TieredServeEngine", "rerank_record"]

#: Pipeline chunks a prefetching ``run_batch`` splits a batch into.
PREFETCH_CHUNKS = 4


def rerank_record(cand_count: int, k: int) -> SearchStats:
    """One lane's exact re-rank as an operation record.

    A bulk distance over the lane's fetched candidates and ``k`` pushes
    into the result heap; no search, so nothing is staged or seeded.
    """
    record = SearchStats()
    record.distance_computations = max(1, cand_count)
    record.topk_updates = k
    return record


class TieredServeEngine:
    """Serve batches through the two-tier pipeline on one device.

    Drop-in for :class:`~repro.serve.engine.SimulatedGpuEngine` behind a
    :class:`~repro.serve.router.Replica` (both ``run_batch`` and the
    multi-stream ``chunked_batch`` protocol), so degraded tiers flow
    through the admission ladder untouched — shrinking ``queue_size``
    under load also shrinks the over-fetch panel, which is exactly the
    graceful-degradation behaviour the ladder expects.
    """

    def __init__(
        self,
        graph: FixedDegreeGraph,
        data: np.ndarray,
        tier: TieredConfig,
        device: str = "v100",
        name: str = "tiered0",
        prefetch: bool = True,
    ) -> None:
        self.tiered = TieredIndex(graph, data, tier, device=device)
        self.traversal = SimulatedGpuEngine(
            graph,
            self.tiered.store.traversal_data,
            device=self.tiered.device,
            name=name,
            resident_bytes=self.tiered.resident_bytes,
            profile=self.tiered.store,
        )
        self.cache = PageCache(min(tier.cache_pages, self.tiered.num_pages))
        self.name = name
        self.prefetch = prefetch

    @property
    def device(self):
        return self.traversal.device

    # -- pricing ---------------------------------------------------------

    def chunked_batch(
        self,
        queries: np.ndarray,
        config: SearchConfig,
        num_chunks: Optional[int] = None,
        max_chunks: int = 1,
    ) -> Tuple[List[List[Tuple[float, int]]], List[ChunkWork], Dict[str, object]]:
        """Search a batch; price it as fetch-overlapped pipeline chunks.

        Each chunk carries (HtoD) its queries' packed signatures plus
        one coalesced staged transfer of the full-precision pages its
        re-rank misses in the cache, (kernel) compressed traversal plus
        the exact re-rank over fetched rows, and (DtoH) the final
        ``k`` results.  The cache is touched in lane order independent
        of the chunking, so results and hit counts are invariant to the
        split — only overlap changes the clock.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        results, stats, plan = self.tiered.search_batch_with_stats(
            queries, config
        )
        tcfg = self.tiered.traversal_config(config)
        kprime = tcfg.k
        if not self.prefetch:
            num_chunks = 1
        elif num_chunks is None:
            est_htod = (
                len(queries) * self.tiered.store.query_device_bytes
                + plan.total_page_touches * self.tiered.page_bytes
            )
            num_chunks = self.traversal.auto_num_chunks(est_htod, max_chunks)
        # Priced under the store's own profile: nothing is read from the
        # queries, so they need no second encoding here.
        chunks, detail = self.traversal.chunk_work(queries, tcfg, stats, num_chunks)
        cost = self.traversal.index.launcher.cost_model
        exact = DistanceProfile.for_metric(
            config.metric, int(self.tiered.data.shape[1])
        )
        counts = split_counts(len(stats), len(chunks)) if len(stats) else [0]
        out_chunks: List[ChunkWork] = []
        kernel_total = htod_total = dtoh_total = 0.0
        fetch_bytes_total = 0
        hits_total = misses_total = 0
        start = 0
        for chunk, count in zip(chunks, counts):
            lane_plans = plan.page_lists[start : start + count]
            lane_counts = plan.candidate_counts[start : start + count]
            start += count
            chunk_hits = 0
            chunk_missed = 0
            for pages in lane_plans:
                hits, missed = self.cache.touch_run(pages)
                chunk_hits += hits
                chunk_missed += len(missed)
            fetch_bytes = chunk_missed * self.tiered.page_bytes
            # With the staging queue, a chunk's misses coalesce into one
            # upload: a single PCIe launch latency plus the pages'
            # bandwidth cost, overlappable with the previous chunk's
            # kernel.  Without it, every missed page is a synchronous
            # demand fetch paying its own launch latency — the
            # serial-fetch baseline the overlap benchmark gates against.
            htod = chunk.htod
            if fetch_bytes:
                if self.prefetch:
                    htod += cost.transfer_time(fetch_bytes)
                else:
                    htod += chunk_missed * cost.transfer_time(
                        self.tiered.page_bytes
                    )
            # The re-rank launch downloads the final ``k`` results; the
            # traversal's own k' candidates never leave the device.
            rerank = self.traversal.index.price(
                [rerank_record(int(c), config.k) for c in lane_counts],
                config,
                exact,
            )
            kernel = chunk.kernel + rerank.kernel_seconds
            out_chunks.append(
                ChunkWork(
                    htod=htod,
                    kernel=kernel,
                    dtoh=rerank.dtoh_seconds,
                    warps=chunk.warps,
                    label=chunk.label,
                )
            )
            kernel_total += kernel
            htod_total += htod
            dtoh_total += rerank.dtoh_seconds
            fetch_bytes_total += fetch_bytes
            hits_total += chunk_hits
            misses_total += chunk_missed
        detail.update(
            kernel_seconds=kernel_total,
            htod_seconds=htod_total,
            dtoh_seconds=dtoh_total,
            num_chunks=len(out_chunks),
            tier={
                "codec": self.tiered.tier.codec,
                "overfetch_k": kprime,
                "rerank_rows": plan.total_candidates,
                "page_hits": hits_total,
                "page_misses": misses_total,
                "fetch_bytes": fetch_bytes_total,
                "resident_bytes": self.tiered.resident_bytes,
                "compression_ratio": self.tiered.compression_ratio(),
                "prefetch": self.prefetch,
            },
        )
        return results, out_chunks, detail

    def run_batch(
        self, queries: np.ndarray, config: SearchConfig
    ) -> BatchServiceResult:
        """Search a batch; overlap fetches with compute when prefetching."""
        max_chunks = PREFETCH_CHUNKS if self.prefetch else 1
        results, chunks, detail = self.chunked_batch(
            queries, config, max_chunks=max_chunks
        )
        if len(chunks) > 1:
            timeline = StreamScheduler(num_streams=2, device=self.device).schedule_chunks(chunks)
            seconds = timeline.makespan
            detail["overlap_gain"] = timeline.overlap_gain()
        else:
            seconds = sum(c.htod + c.kernel + c.dtoh for c in chunks)
        return BatchServiceResult(results, seconds, detail)

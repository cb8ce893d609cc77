"""SONG on the simulated GPU: one pricing path from operation records.

A search is priced from its lanes' operation records
(:class:`~repro.core.song.SearchStats`), never from a live event stream:
:func:`meter_lane` charges one record onto a
:class:`~repro.simt.warp.Warp` under a :class:`DistanceProfile`, and
:meth:`GpuSongIndex.price` launches it over a batch of records.  The
metered index, the serving engines and both stages of the out-of-core
tier all go through these two, so their times agree by construction.

:class:`WarpMeter` is the event → warp-primitive table
:func:`meter_lane` reads (Section II/III of the paper):

- bulk distance → lock-step SIMD lanes + ``shfl_down`` warp reduction,
  coalesced vector reads;
- adjacency fetch → one coalesced read per fixed-degree row (scattered
  when several queries share the warp and pull different rows);
- queue/visited maintenance → single-lane sequential work, priced higher
  when the structure spilled to global memory.

:class:`GpuSongIndex` owns placement decisions (what fits in shared
memory), searches a query batch through its searcher's one dispatch
(:meth:`SongSearcher.search_batch <repro.core.song.SongSearcher.search_batch>`
— it has no search loop of its own), prices the records, and converts
the result into QPS via the cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SearchConfig
from repro.core.song import SearchStats, SongSearcher
from repro.distances import get_metric
from repro.graphs.storage import FixedDegreeGraph
from repro.simt.device import DeviceSpec, get_device
from repro.simt.kernel import KernelLauncher, KernelResult
from repro.simt.memory import CapacityLedger, SharedMemoryBudget
from repro.simt.profiler import (
    STAGE_DISTANCE,
    STAGE_LOCATE,
    STAGE_MAINTAIN,
    StageProfiler,
)
from repro.simt.warp import Warp
from repro.structures.visited import VisitedBackend, VisitedSet


#: Sequential visited-set op cost in abstract steps, per backend.  The
#: open-addressing table parallelizes its linear probing across warp
#: lanes (Section IV-B), so one step usually suffices; the Bloom filter's
#: k hash positions and the Cuckoo filter's two buckets are touched by the
#: single maintaining thread, hence cost more steps per op.
_VISITED_OP_STEPS = {
    VisitedBackend.HASH_TABLE: 1,
    VisitedBackend.BLOOM: 4,  # k ≈ 7 positions touched sequentially
    VisitedBackend.CUCKOO: 3,  # fingerprint + two 4-slot buckets
    VisitedBackend.PYSET: 1,
}


@dataclass
class Placement:
    """Where each search structure lives on the device."""

    frontier_in_shared: bool
    topk_in_shared: bool
    visited_in_shared: bool
    shared_bytes_per_warp: int


@dataclass(frozen=True)
class DistanceProfile:
    """What one distance costs the device, whatever the points are stored as.

    The compressed stores of :mod:`repro.tiered.codes` carry the same
    three attributes and are passed as profiles themselves.
    """

    #: ``f(cost_dim) -> scalar operations`` for one distance.
    flops_per_distance: Callable[[int], int]
    #: 4-byte words read per point (and staged per query).
    cost_dim: int
    #: Bytes uploaded host → device per query.
    query_device_bytes: int

    @classmethod
    def for_metric(cls, metric: str, dim: int) -> "DistanceProfile":
        """Full-precision points: ``dim`` float32 words under ``metric``."""
        return cls(get_metric(metric).flops_per_distance, dim, 4 * dim)


class WarpMeter:
    """The event → warp-primitive table: what each kind of search
    operation costs a :class:`~repro.simt.warp.Warp`.

    Never attached to a running search — :func:`meter_lane` charges a
    finished operation record through it, one call per count.
    """

    def __init__(
        self,
        warp: Warp,
        config: SearchConfig,
        placement: Placement,
        flops_per_distance: Callable[[int], int],
    ) -> None:
        self.warp = warp
        self.config = config
        self.placement = placement
        self._flops = flops_per_distance
        self._queue_depth = max(2, int(math.log2(config.queue_size)) + 1)
        self._visited_steps = _VISITED_OP_STEPS[config.visited_backend]

    def stage(self, name: str) -> None:
        self.warp.set_stage(name)

    # -- frontier / topk -------------------------------------------------

    def pop_frontier(self, n: int = 1) -> None:
        self.warp.sequential(
            n * self._queue_depth, in_shared=self.placement.frontier_in_shared
        )

    def push_frontier(self, n: int = 1) -> None:
        self.warp.sequential(
            n * self._queue_depth, in_shared=self.placement.frontier_in_shared
        )

    def topk_update(self, n: int = 1) -> None:
        self.warp.sequential(
            n * self._queue_depth, in_shared=self.placement.topk_in_shared
        )

    # -- graph / visited -------------------------------------------------------

    def read_graph_row(self, degree_slots: int, rows: int = 1) -> None:
        if self.config.multi_query > 1:
            # Several queries pull unrelated rows at once: no coalescing.
            self.warp.global_read_scattered(rows * degree_slots)
        else:
            self.warp.global_read_coalesced(4 * degree_slots, count=rows)

    def visited_test(self, n: int = 1) -> None:
        self.warp.sequential(
            n * self._visited_steps, in_shared=self.placement.visited_in_shared
        )

    def visited_insert(self, n: int = 1) -> None:
        self.warp.sequential(
            n * self._visited_steps, in_shared=self.placement.visited_in_shared
        )

    def visited_delete(self, n: int = 1) -> None:
        self.warp.sequential(
            n * self._visited_steps, in_shared=self.placement.visited_in_shared
        )

    # -- distances ---------------------------------------------------------------

    def bulk_distance(self, num_candidates: int, dim: int) -> None:
        warp = self.warp
        lanes = max(1, warp.device.warp_size // self.config.multi_query)
        warps_per_block = max(1, self.config.block_size // warp.device.warp_size)
        total_bytes = 4 * dim * num_candidates
        if warps_per_block == 1:
            warp.global_read_coalesced(total_bytes)
        else:
            # The block's warps fetch disjoint dimension slices in
            # parallel: the group's critical path sees 1/warps of the
            # transactions, while the full traffic still counts against
            # device bandwidth.
            per_warp = -(-total_bytes // warps_per_block)
            warp.global_read_coalesced(per_warp)
            warp.memory.read_coalesced(total_bytes - per_warp)
        total_ops = num_candidates * self._flops(dim)
        # The block's warps split the dimensions: the per-group critical
        # path shrinks by the warp count (paper Sec. VI: "all threads in
        # the block are involved in this stage").
        warp.simd_compute(-(-total_ops // warps_per_block), active_lanes=lanes)
        warp.warp_reduce(num_candidates)
        if warps_per_block > 1:
            # Cross-warp aggregation goes through shared memory, then
            # thread 0 folds the per-warp partials.
            warp.shared_access(num_candidates * warps_per_block)
            warp.sequential(num_candidates * (warps_per_block - 1))
        warp.shared_access(num_candidates)  # dist buffer writes


def meter_lane(
    warp: Warp,
    record: SearchStats,
    config: SearchConfig,
    placement: Placement,
    profile,
    degree: int,
) -> None:
    """Charge one lane's operation record onto ``warp``.

    The one function from operation counts to cycles: every count is
    charged through :class:`WarpMeter` in the paper's three stages
    (Fig. 10).  Adjacency fetches are charged per row; the vector reads
    of the bulk-distance stage coalesce over the lane's total bytes.
    ``profile`` is a :class:`DistanceProfile` or a compressed store.
    """
    meter = WarpMeter(warp, config, placement, profile.flops_per_distance)
    words = profile.cost_dim
    meter.stage(STAGE_LOCATE)
    # Each search stages its query into shared memory once.
    warp.global_read_coalesced(4 * words, count=record.searches)
    warp.shared_access(words * record.searches)
    meter.pop_frontier(record.frontier_pops)
    meter.read_graph_row(degree, rows=record.rows_fetched)
    meter.visited_test(record.visited_tests)
    meter.stage(STAGE_DISTANCE)
    meter.bulk_distance(record.distance_computations + record.searches, words)
    meter.stage(STAGE_MAINTAIN)
    meter.topk_update(record.topk_updates)
    meter.visited_insert(record.visited_inserts + record.searches)
    meter.push_frontier(record.frontier_pushes)
    meter.visited_delete(record.visited_deletes)


class GpuSongIndex:
    """Batch ANN queries over a proximity graph on a simulated GPU.

    Parameters
    ----------
    graph:
        Fixed-degree proximity graph (NSW in the paper's experiments).
    data:
        ``(n, d)`` dataset, resident in simulated global memory: float
        vectors, or packed uint32 signatures searched under
        ``metric="hamming"`` (:mod:`repro.hashing`).
    device:
        Device preset name or :class:`DeviceSpec`.
    resident_bytes:
        Bytes this index keeps in device global memory.  Defaults to
        graph + dataset; the tiered index passes its whole resident tier
        (graph + codes + hot-page cache) instead — and for PQ the
        traversal array is decoded rows standing in for the codes the
        device holds.
    allow_oversubscription:
        When the resident footprint exceeds the device budget, warn
        (``ResourceWarning``) instead of raising
        :class:`~repro.simt.memory.DeviceMemoryExceeded`.  Documented
        escape hatch for pricing reference runs on datasets the card
        could not actually hold.
    """

    def __init__(
        self,
        graph: FixedDegreeGraph,
        data: np.ndarray,
        device: str = "v100",
        resident_bytes: Optional[int] = None,
        allow_oversubscription: bool = False,
    ) -> None:
        self.graph = graph
        data = np.asarray(data)
        # Float data is stored single-precision as on the GPU; packed
        # bit-signature datasets (uint32) pass through untouched.
        if data.dtype.kind == "f":
            data = data.astype(np.float32, copy=False)
        self.data = data
        self.device: DeviceSpec = get_device(device)
        self.searcher = SongSearcher(graph, self.data)
        self.launcher = KernelLauncher(self.device)
        if resident_bytes is None:
            resident_bytes = self.index_memory_bytes() + self.dataset_memory_bytes()
        self.resident_bytes = int(resident_bytes)
        self.ledger = CapacityLedger(self.device)
        self.ledger.reserve(
            "index", self.resident_bytes, allow_oversubscription
        )

    # -- memory accounting ----------------------------------------------------

    def index_memory_bytes(self) -> int:
        """Graph-index footprint in global memory (Table III)."""
        return self.graph.memory_bytes()

    def dataset_memory_bytes(self) -> int:
        return int(self.data.nbytes)

    def placement(self, config: SearchConfig) -> Placement:
        """Decide which structures fit in shared memory (Sec. VIII)."""
        dim = self.data.shape[1]
        limit = self.device.shared_mem_per_sm_kb * 1024
        # An open-addressing table without visited deletion grows without
        # bound, so it must live in global memory (paper Sec. VIII).  The
        # probabilistic filters have *fixed* allocations — they saturate
        # rather than grow — so they qualify for shared memory, as does
        # the 2K-bounded table under visited deletion.
        visited_bounded = config.visited_deletion or config.visited_backend in (
            VisitedBackend.BLOOM,
            VisitedBackend.CUCKOO,
        )
        visited_bytes = 0
        if visited_bounded:
            probe = VisitedSet(
                backend=config.visited_backend,
                capacity=config.effective_visited_capacity(self.graph.degree),
                fp_rate=config.bloom_fp_rate,
            )
            visited_bytes = probe.memory_bytes()

        def budget(queue_shared: bool, visited_shared: bool) -> SharedMemoryBudget:
            return SharedMemoryBudget.for_search(
                dim=dim,
                degree=self.graph.degree,
                queue_capacity=config.queue_size if queue_shared else 0,
                topk=config.queue_size if queue_shared else 0,
                visited_bytes=visited_bytes if visited_shared else 0,
                multi_query=config.multi_query,
            )

        queue_shared = config.bounded_queue
        visited_shared = visited_bounded
        plan = budget(queue_shared, visited_shared)
        if plan.total > limit and visited_shared:
            visited_shared = False
            plan = budget(queue_shared, visited_shared)
        if plan.total > limit and queue_shared:
            queue_shared = False
            plan = budget(queue_shared, visited_shared)
        return Placement(
            frontier_in_shared=queue_shared,
            topk_in_shared=queue_shared,
            visited_in_shared=visited_shared,
            shared_bytes_per_warp=plan.total,
        )

    def warp_demand(self, config: SearchConfig, num_queries: int) -> int:
        """Resident warps a batch of ``num_queries`` asks of the device.

        One warp group serves ``config.multi_query`` queries and spans
        ``block_size / warp_size`` warps.  The stream model uses this as
        the kernel's SM-capacity demand: small batches occupy a sliver
        of the machine (the paper's Fig. 11), so concurrent launches can
        share SMs almost freely.
        """
        if num_queries <= 0:
            return 0
        groups = -(-num_queries // max(1, config.multi_query))
        warps_per_group = max(1, config.block_size // self.device.warp_size)
        return groups * warps_per_group

    # -- search --------------------------------------------------------------

    def price(
        self,
        records: Sequence[SearchStats],
        config: SearchConfig,
        profile,
        profiler: Optional[StageProfiler] = None,
    ) -> KernelResult:
        """Launch timing of a batch whose lanes did ``records``' work.

        One :func:`meter_lane` per record, ``config.multi_query`` lanes
        to a warp; the query upload is ``profile.query_device_bytes``
        per lane, the download ``config.k`` 8-byte results per lane.
        """
        if not len(records):  # an empty batch launches nothing
            return KernelResult([], 0.0, 0.0, 0.0, {}, 0, 0)
        placement = self.placement(config)
        degree = self.graph.degree

        def kernel(lane: int, warp: Warp) -> None:
            meter_lane(warp, records[lane], config, placement, profile, degree)

        return self.launcher.launch(
            kernel,
            num_queries=len(records),
            htod_bytes=len(records) * profile.query_device_bytes,
            dtoh_bytes=len(records) * config.k * 8,
            shared_bytes_per_warp=placement.shared_bytes_per_warp,
            queries_per_warp=config.multi_query,
            warps_per_query=max(1, config.block_size // self.device.warp_size),
            profiler=profiler,
        )

    def search_batch(
        self,
        queries: np.ndarray,
        config: SearchConfig,
        profiler: Optional[StageProfiler] = None,
        collect_stats: bool = False,
    ) -> Tuple[List[List[Tuple[float, int]]], KernelResult]:
        """Run the batch and return ``(results, kernel_result)``.

        ``kernel_result`` carries the estimated timing; use
        ``kernel_result.qps(len(queries))`` for throughput.  With
        ``collect_stats`` the lanes' records are attached as
        ``kernel_result.stats``.
        """
        queries = np.atleast_2d(np.asarray(queries))
        records = [SearchStats() for _ in range(len(queries))]
        outputs = self.searcher.search_batch(queries, config, stats=records)
        profile = DistanceProfile.for_metric(config.metric, self.data.shape[1])
        result = self.price(records, config, profile, profiler=profiler)
        result.outputs = outputs
        if collect_stats:
            result.stats = records  # type: ignore[attr-defined]
        return outputs, result

"""SONG on the simulated GPU: one pricing path from operation records.

A search is priced from its lanes' operation records
(:class:`~repro.core.song.SearchStats`), never from a live event stream:
:func:`price_block` prices a ``(B, 11)`` block of record counts under a
:class:`DistanceProfile`, and :meth:`GpuSongIndex.price` turns a batch
of records into that block.  The metered index, the serving engines and
both stages of the out-of-core tier all go through these two, so their
times agree by construction.

Each count maps to the warp work of the paper's three stages (Section
II/III, Fig. 10), charged by :class:`~repro.simt.cost.CostModel`:

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
from operator import attrgetter
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SearchConfig
from repro.core.song import SearchStats, SongSearcher
from repro.distances import get_metric
from repro.graphs.storage import FixedDegreeGraph
from repro.simt.cost import CostModel, KernelResult
from repro.simt.device import DeviceSpec, get_device
from repro.simt.memory import (
    SCATTERED_SECTOR_BYTES,
    CapacityLedger,
    SharedMemoryBudget,
)
from repro.simt.profiler import (
    STAGE_DISTANCE,
    STAGE_LOCATE,
    STAGE_MAINTAIN,
    StageProfiler,
)
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


#: A record block's columns, one per :class:`SearchStats` count.
RECORD_COLUMNS = SearchStats.__slots__
_read_record = attrgetter(*RECORD_COLUMNS)


def record_block(records: Sequence[SearchStats]) -> np.ndarray:
    """``(B, 11)`` int64 block of ``records``' counts, columns in
    :data:`RECORD_COLUMNS` order."""
    block = np.array(list(map(_read_record, records)), dtype=np.int64)
    return block.reshape(len(records), len(RECORD_COLUMNS))


def price_block(
    block: np.ndarray,
    config: SearchConfig,
    placement: Placement,
    profile,
    degree: int,
    device: DeviceSpec,
    profiler: Optional[StageProfiler] = None,
) -> KernelResult:
    """Launch timing of a batch whose lanes did ``block``'s work.

    The one function from operation counts to cycles: each row is one
    lane's record (:func:`record_block`), priced in the paper's three
    stages (Fig. 10) as column arithmetic over
    :class:`~repro.simt.cost.CostModel`'s per-event charges.
    Adjacency fetches are charged per row; the vector reads of the
    bulk-distance stage coalesce over the lane's total bytes.
    ``config.multi_query`` consecutive lanes share a warp, and a warp
    group spans ``block_size / warp_size`` warps.  ``profile`` is a
    :class:`DistanceProfile` or a compressed store.  The query upload is
    ``profile.query_device_bytes`` per lane, the download ``config.k``
    8-byte results per lane.
    """
    block = np.asarray(block)
    if block.ndim != 2 or block.shape[1] != len(RECORD_COLUMNS):
        raise ValueError(f"block must be (B, {len(RECORD_COLUMNS)}), not {block.shape}")
    if not len(block):  # an empty batch launches nothing
        return KernelResult([], 0.0, 0.0, 0.0, {}, 0, 0)
    if block.min() < 0:
        raise ValueError("operation counts must be non-negative")
    cost = CostModel(device)
    count = dict(zip(RECORD_COLUMNS, block.T))
    searches, pops, rows = count["searches"], count["frontier_pops"], count["rows_fetched"]
    tests, inserts = count["visited_tests"], count["visited_inserts"]
    deletes, topk = count["visited_deletes"], count["topk_updates"]
    pushes = count["frontier_pushes"]
    words = profile.cost_dim
    depth = max(2, int(math.log2(config.queue_size)) + 1)  # queue op steps
    steps = _VISITED_OP_STEPS[config.visited_backend]
    frontier, visited = placement.frontier_in_shared, placement.visited_in_shared
    warps = max(1, config.block_size // device.warp_size)

    # Locate: each search stages its query into shared memory once, then
    # pops, fetches adjacency rows and tests visited.
    if config.multi_query > 1:
        # Several queries pull unrelated rows at once: no coalescing.
        graph_cycles = cost.scattered_read(rows * degree)
        graph_bytes = SCATTERED_SECTOR_BYTES * rows * degree
    else:
        graph_cycles = cost.coalesced_read(4 * degree, rows)
        graph_bytes = 4 * degree * rows
    locate = (
        cost.coalesced_read(4 * words, searches) + words * searches
        + cost.sequential(pops * depth, frontier) + graph_cycles
        + cost.sequential(tests * steps, visited)
    )

    # Bulk distance, including each search's entry-point seed.
    candidates = count["distance_computations"] + searches
    vector_bytes = 4 * words * candidates
    # The block's warps fetch disjoint dimension slices in parallel and
    # split the arithmetic: the group's critical path sees 1/warps of the
    # transactions and operations (paper Sec. VI: "all threads in the
    # block are involved in this stage"), while the full traffic still
    # counts against device bandwidth.
    ops = candidates * profile.flops_per_distance(words)
    lanes = max(1, device.warp_size // config.multi_query)
    distance = (
        cost.coalesced_read(-(-vector_bytes // warps))
        + cost.simd(-(-ops // warps), lanes) + cost.reduce(candidates)
        + candidates  # dist buffer writes, one shared access each
    )
    if warps > 1:
        # Cross-warp aggregation goes through shared memory, then thread
        # 0 folds the per-warp partials.
        distance = distance + candidates * warps + cost.sequential(candidates * (warps - 1))

    # Maintain: top-k updates, visited inserts (seed included), frontier
    # pushes and visited deletions.
    maintain = (
        cost.sequential(topk * depth, placement.topk_in_shared)
        + cost.sequential((inserts + searches) * steps, visited)
        + cost.sequential(pushes * depth, frontier)
        + cost.sequential(deletes * steps, visited)
    )

    # A spilled structure's every op is also a scattered global read.
    spilled_ops = (
        (0 if frontier else (pops + pushes) * depth)
        + (0 if placement.topk_in_shared else topk * depth)
        + (0 if visited else (tests + inserts + searches + deletes) * steps)
    )
    lane_bytes = (
        4 * words * searches + graph_bytes + vector_bytes
        + SCATTERED_SECTOR_BYTES * spilled_ops
    )
    lane_cycles = locate + distance + maintain
    warp_cycles = np.add.reduceat(
        lane_cycles, np.arange(0, len(block), config.multi_query)
    ).tolist()
    total_bytes = int(lane_bytes.sum())
    shared = placement.shared_bytes_per_warp
    kernel_seconds = cost.kernel_time(
        warp_cycles, total_bytes, shared, warps_per_group=warps
    )
    htod = cost.transfer_time(len(block) * profile.query_device_bytes)
    dtoh = cost.transfer_time(len(block) * config.k * 8)
    stage_cycles = {
        STAGE_LOCATE: float(locate.sum()),
        STAGE_DISTANCE: float(distance.sum()),
        STAGE_MAINTAIN: float(maintain.sum()),
    }
    if profiler is not None:
        profiler.add_transfer(htod=htod, dtoh=dtoh)
        profiler.add_kernel(kernel_seconds)
        profiler.add_stage_cycles(stage_cycles)
    return KernelResult(
        outputs=[],
        kernel_seconds=kernel_seconds,
        htod_seconds=htod,
        dtoh_seconds=dtoh,
        stage_cycles=stage_cycles,
        total_global_bytes=total_bytes,
        occupancy_warps_per_sm=cost.occupancy_warps_per_sm(shared),
        warp_cycles=warp_cycles,
    )


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
        """Launch timing of a batch whose lanes did ``records``' work:
        :func:`price_block` over their :func:`record_block`."""
        return price_block(
            record_block(records), config, self.placement(config), profile,
            self.graph.degree, self.device, profiler,
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

"""SONG's CPU implementation (paper Section VIII-I, Fig. 15).

The same 3-stage search as the GPU kernel, priced by a CPU machine model
instead of warp costs: search (through the searcher's one dispatch,
:meth:`SongSearcher.search_batch <repro.core.song.SongSearcher.search_batch>`)
with an operation record, then :func:`price_records` prices it, as it
prices HNSW's queries — the mirror of ``GpuSongIndex.search_batch``.
Beyond the search itself only the constants differ: ``TUNED_CPU`` here
stands for what the paper engineered, HNSW runs under ``DEFAULT_CPU``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.core.config import SearchConfig
from repro.core.machine import TUNED_CPU, CpuModel
from repro.core.song import SearchStats, SongSearcher
from repro.distances import OpCounter, get_metric
from repro.graphs.storage import FixedDegreeGraph


def record_ops(record: SearchStats, degree: int, flops_per_distance: int) -> OpCounter:
    """CPU work units of the searches accumulated in ``record``.

    Every frontier pop/push and top-k update is a queue op (a pop is also
    a hop), a fetched adjacency row reads ``degree`` slots, every visited
    test/insert/delete is a hash op, and each distance — the entry-point
    seeds included — reads one vector.
    """
    distances = record.distance_computations + record.searches
    return OpCounter(
        distance_calls=distances,
        distance_flops=distances * flops_per_distance,
        vector_reads=distances,
        graph_reads=record.rows_fetched * degree,
        queue_ops=record.frontier_pops + record.frontier_pushes + record.topk_updates,
        hash_ops=(
            record.visited_tests
            + record.visited_inserts
            + record.searches
            + record.visited_deletes
        ),
        hops=record.frontier_pops,
    )


def price_records(
    records: Iterable[Tuple[SearchStats, int]], dim: int, metric: str, model: CpuModel
) -> Tuple[OpCounter, float]:
    """Work units and ``model`` seconds of finished records, each paired
    with the width of the rows its searches fetched (one pair per graph:
    an HNSW query hands in one per layer)."""
    flops = get_metric(metric).flops_per_distance(dim)
    units = [astuple(record_ops(record, degree, flops)) for record, degree in records]
    counter = OpCounter(*map(sum, zip(*units)))
    return counter, model.seconds(counter, bytes_read=4 * dim * counter.vector_reads)


@dataclass
class CpuBatchResult:
    """Results plus the modelled single-thread execution time."""

    results: List[List[Tuple[float, int]]]
    seconds: float
    counter: OpCounter

    def qps(self) -> float:
        if self.seconds == 0:
            return float("inf")
        return len(self.results) / self.seconds


class CpuSongIndex:
    """Single-thread CPU SONG over a fixed-degree proximity graph."""

    def __init__(
        self,
        graph: FixedDegreeGraph,
        data: np.ndarray,
        model: CpuModel = TUNED_CPU,
    ) -> None:
        self.graph = graph
        self.data = np.asarray(data, dtype=np.float32)
        self.model = model
        self.searcher = SongSearcher(graph, self.data)

    def search_batch(self, queries: np.ndarray, config: SearchConfig) -> CpuBatchResult:
        """Search every query; seconds accumulate (single thread)."""
        queries = np.atleast_2d(np.asarray(queries))
        # One record for the whole batch: every lane accumulates into it.
        record = SearchStats()
        results = self.searcher.search_batch(
            queries, config, stats=[record] * len(queries)
        )
        counter, seconds = price_records(
            [(record, self.graph.degree)], self.data.shape[1], config.metric, self.model
        )
        return CpuBatchResult(results=results, seconds=seconds, counter=counter)

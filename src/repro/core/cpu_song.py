"""SONG's CPU implementation (paper Section VIII-I, Fig. 15).

The same 3-stage search as the GPU kernel, priced by a CPU machine model
instead of warp costs: search (through the searcher's one dispatch,
:meth:`SongSearcher.search_batch <repro.core.song.SongSearcher.search_batch>`)
with an operation record, then :func:`record_ops` turns the record into
the work units :meth:`~repro.core.machine.CpuModel.seconds` prices — the
mirror of ``GpuSongIndex.search_batch``.  Its edge over plain HNSW search comes
from exactly what the paper engineered: batched distance evaluation
(SIMD friendly) and the bounded data structures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

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
        counter, seconds = self._price(record, config)
        return CpuBatchResult(results=results, seconds=seconds, counter=counter)

    def _price(self, record: SearchStats, config: SearchConfig) -> Tuple[OpCounter, float]:
        """Work units and modelled seconds of a finished operation record."""
        dim = self.data.shape[1]
        counter = record_ops(
            record, self.graph.degree, get_metric(config.metric).flops_per_distance(dim)
        )
        seconds = self.model.seconds(counter, bytes_read=4 * dim * counter.vector_reads)
        return counter, seconds

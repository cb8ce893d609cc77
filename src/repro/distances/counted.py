"""Operation accounting for CPU work-unit timing.

Throughput comparisons in the paper hinge on *how much work* each method
does, not on wall-clock noise of a Python prototype.  The CPU searchers
(HNSW, Algorithm 1, CPU SONG) therefore report their work as an
:class:`OpCounter`, which :class:`~repro.core.machine.CpuModel` converts
into single-thread time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OpCounter:
    """Tally of the work a search performed.

    Attributes
    ----------
    distance_calls:
        Number of distance evaluations (pairs).
    distance_flops:
        Floating-point operations spent in distance evaluations.
    vector_reads:
        Data vectors fetched from the dataset (global-memory traffic).
    graph_reads:
        Adjacency rows fetched from the graph index.
    queue_ops:
        Priority-queue pushes/pops (sequential work).
    hash_ops:
        Visited-set insert/lookup/delete operations (sequential work).
    hops:
        Search iterations (vertices expanded).
    """

    distance_calls: int = 0
    distance_flops: int = 0
    vector_reads: int = 0
    graph_reads: int = 0
    queue_ops: int = 0
    hash_ops: int = 0
    hops: int = 0

"""Exact kNN-graph construction by blocked brute force.

Used as the ground-truth graph for small datasets and as the base graph
NSG, DPG and CAGRA refine.  The neighbors are
:func:`repro.data.ground_truth` of the dataset against itself, so memory
stays bounded for larger datasets.  :func:`bootstrap_table` is the one
answer to "where does a refinement builder's kNN table come from".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.ground_truth import ground_truth
from repro.distances import get_metric
from repro.graphs.nn_descent import nn_descent
from repro.graphs.storage import FixedDegreeGraph
from repro.simt.build_cost import maybe_recorder

#: Up to this many points :func:`bootstrap_table` computes the exact
#: table: the O(n^2 d) GEMM tiles beat the round-structured descent
#: until the quadratic term dominates (well above every bench size
#: here), and they are just as batch-shaped.
_EXACT_BOOTSTRAP_MAX = 1 << 15

#: NN-descent join sample rate above that size.  Join cost grows with
#: the square of the list length, so at the ``2 * degree`` widths the
#: refinement builders ask for the default 0.6 wastes most of its
#: pairs: 0.3 converges to the same recall (within 1e-4 on uniform
#: data) in a third of the time.
_BOOTSTRAP_SAMPLE_RATE = 0.3


def knn_neighbors(
    data: np.ndarray, k: int, metric: str = "l2", block: Optional[int] = None
) -> np.ndarray:
    """Return an ``(n, k)`` array of each point's k nearest other points."""
    nbrs = ground_truth(data, data, k, metric, block=block, exclude_self=True)
    return nbrs.astype(np.int32)


def bootstrap_table(
    data: np.ndarray,
    k: int,
    metric: str = "l2",
    knn_table: Optional[np.ndarray] = None,
    seed: int = 0,
    cost=None,
) -> np.ndarray:
    """The ``(n, k)`` int64 kNN table NSG, DPG and CAGRA refine.

    Rows are sorted ascending by distance (position = rank).  The
    caller's ``knn_table`` wins when given; otherwise the source follows
    the input size: blocked exact top-k up to ``_EXACT_BOOTSTRAP_MAX``
    points, NN-descent (seeded by ``seed``) above it.  ``cost`` (a
    :class:`~repro.simt.build_cost.BuildCostRecorder`) receives the
    bootstrap's kernels either way.

    Whatever the source, the table returned has shape ``(n, k)``, every
    id in ``[0, n)`` and no id twice in a row (a row may hold its own
    index) — checked here once, so the refinement kernels index with it
    unchecked; a table that breaks this raises ``ValueError`` naming its
    source.
    """
    n = len(data)
    if knn_table is not None:
        source = "knn_table"
        table = np.asarray(knn_table)
        if table.shape != (n, k):
            raise ValueError(
                f"knn_table must have shape ({n}, {k}), got {table.shape}"
            )
    elif n > _EXACT_BOOTSTRAP_MAX:
        source = "nn_descent table"
        table = nn_descent(
            data,
            k,
            metric=metric,
            seed=seed,
            sample_rate=_BOOTSTRAP_SAMPLE_RATE,
            cost=cost,
        )
    else:
        source = "exact top-k table"
        table = knn_neighbors(data, k, metric)
        rec = maybe_recorder(cost)
        dim = data.shape[1]
        flops = get_metric(metric).flops_per_distance(dim)
        rec.record_distances(n * n, flops, dim, "bootstrap-exact")
        rec.record_sort(n, min(n, 4 * k), "bootstrap-topk")
    table = table.astype(np.int64)
    by_id = np.sort(table, axis=1)
    if by_id[:, 0].min() < 0 or by_id[:, -1].max() >= n:
        raise ValueError(f"{source}: ids must lie in [0, {n})")
    if (by_id[:, 1:] == by_id[:, :-1]).any():
        raise ValueError(f"{source}: a row holds the same id twice")
    return table


def build_knn_graph(
    data: np.ndarray, k: int, metric: str = "l2", entry_point: int = None
) -> FixedDegreeGraph:
    """Exact kNN graph as a :class:`FixedDegreeGraph`.

    The entry point defaults to the medoid (point closest to the mean),
    which is also how NSG picks its navigating node.
    """
    nbrs = knn_neighbors(data, k, metric)
    if entry_point is None:
        entry_point = medoid(data, metric)
    graph = FixedDegreeGraph(len(data), k, entry_point)
    for v in range(len(data)):
        graph.set_neighbors(v, nbrs[v])
    return graph


def medoid(data: np.ndarray, metric: str = "l2") -> int:
    """Index of the point nearest the dataset centroid."""
    center = data.mean(axis=0)
    dists = get_metric(metric).batch(center, data)
    return int(np.argmin(dists))

"""Exact kNN-graph construction by blocked brute force.

Used as the ground-truth graph for small datasets and as the base graph
NSG refines.  The neighbors are :func:`repro.data.ground_truth` of the
dataset against itself, so memory stays bounded for larger datasets.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.data.ground_truth import ground_truth
from repro.distances import get_metric
from repro.graphs.storage import FixedDegreeGraph


def knn_neighbors(
    data: np.ndarray, k: int, metric: str = "l2", block: Optional[int] = None
) -> np.ndarray:
    """Return an ``(n, k)`` array of each point's k nearest other points."""
    nbrs = ground_truth(data, data, k, metric, block=block, exclude_self=True)
    return nbrs.astype(np.int32)


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

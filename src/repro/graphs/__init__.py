"""Proximity-graph construction and storage.

SONG searches a pre-built proximity graph.  The paper loads an NSW index
and also demonstrates generalization to NSG; HNSW is the CPU baseline.
This package implements all of them from scratch:

- :class:`~repro.graphs.storage.FixedDegreeGraph` — the flat fixed-degree
  adjacency array SONG keeps in GPU global memory.
- :func:`~repro.graphs.bruteforce_knn.build_knn_graph` — exact kNN graph.
- :class:`~repro.graphs.nsw.NSWBuilder` — navigable small-world graph
  (sequential insertion).
- :class:`~repro.graphs.hnsw.HNSWIndex` — hierarchical NSW with heuristic
  neighbor selection (the CPU comparator; generation-batched insertion).
- :class:`~repro.graphs.nsg.NSGBuilder` — navigating spreading-out graph.
- :func:`~repro.graphs.dpg.build_dpg` — diversified proximity graph.
- :class:`~repro.graphs.cagra.CagraBuilder` — fully-batched CAGRA-style
  construction (detour-count reordering + reverse-edge merge).
- :func:`build_graph` — one dispatcher over every family above, keyed by
  :data:`~repro.core.config.GRAPH_TYPES` names.

Each family has exactly one construction path, the one that won when
the alternatives were raced (see each module's docstring); NSG, DPG and
CAGRA share one kNN-table source,
:func:`~repro.graphs.bruteforce_knn.bootstrap_table`.
"""

import numpy as np

from repro.graphs.storage import FixedDegreeGraph
from repro.graphs.bruteforce_knn import build_knn_graph
from repro.graphs.nsw import NSWBuilder, build_nsw
from repro.graphs.hnsw import HNSWIndex
from repro.graphs.nsg import NSGBuilder, build_nsg
from repro.graphs.io import load_graph, save_graph
from repro.graphs.dpg import build_dpg
from repro.graphs.cagra import CagraBuilder, build_cagra

__all__ = [
    "load_graph",
    "save_graph",
    "build_dpg",
    "build_cagra",
    "build_graph",
    "CagraBuilder",
    "FixedDegreeGraph",
    "build_knn_graph",
    "NSWBuilder",
    "build_nsw",
    "HNSWIndex",
    "NSGBuilder",
    "build_nsg",
]


def build_graph(
    data: np.ndarray,
    graph_type: str = "nsw",
    degree: int = 16,
    metric: str = "l2",
    seed: int = 0,
    cost=None,
    **kwargs,
) -> FixedDegreeGraph:
    """Build any supported graph family behind one uniform signature.

    ``graph_type`` selects the builder (one of
    :data:`~repro.core.config.GRAPH_TYPES`); ``degree`` is the out-degree
    bound of the resulting base-layer graph.  Layered builders (NSW/HNSW)
    derive ``m = degree // 2`` so their layer-0 degree (``2m``) matches.
    ``cost`` is forwarded to the builders that meter construction through
    the SIMT cost model (NSG, DPG, CAGRA).  Extra ``kwargs`` pass through
    to the underlying builder unchanged.
    """
    from repro.core.config import GRAPH_TYPES

    if graph_type not in GRAPH_TYPES:
        raise ValueError(
            f"unknown graph type {graph_type!r}; expected one of {GRAPH_TYPES}"
        )
    m = max(2, degree // 2)
    if graph_type == "nsw":
        return build_nsw(
            data,
            m=m,
            ef_construction=kwargs.pop("ef_construction", 4 * degree),
            max_degree=degree,
            metric=metric,
            seed=seed,
            **kwargs,
        )
    if graph_type == "hnsw":
        index = HNSWIndex(
            data,
            m=m,
            ef_construction=kwargs.pop("ef_construction", 4 * degree),
            metric=metric,
            seed=seed,
            **kwargs,
        ).build()
        return index.base_layer_graph()
    if graph_type == "nsg":
        return build_nsg(
            data,
            degree=degree,
            knn=kwargs.pop("knn", 2 * degree),
            search_len=kwargs.pop("search_len", 3 * degree),
            metric=metric,
            cost=cost,
            **kwargs,
        )
    if graph_type == "dpg":
        return build_dpg(
            data,
            degree=degree,
            metric=metric,
            cost=cost,
            **kwargs,
        )
    if graph_type == "cagra":
        return build_cagra(
            data,
            degree=degree,
            metric=metric,
            cost=cost,
            **kwargs,
        )
    return build_knn_graph(data, degree, metric=metric, **kwargs)

"""SONG reproduction: graph-based ANN search on a simulated GPU.

Reproduces *SONG: Approximate Nearest Neighbor Search on GPU*
(Zhao, Tan, Li — ICDE 2020): the 3-stage decoupled graph search, the
GPU-friendly data structures and memory optimizations, the out-of-memory
hashing path, and the full HNSW / Faiss-IVFPQ comparison harness — with
the CUDA hardware replaced by a warp-level SIMT cost-model simulator.

Quickstart::

    import numpy as np
    from repro import build_nsw, GpuSongIndex, SearchConfig

    data = np.random.default_rng(0).normal(size=(2000, 32)).astype(np.float32)
    graph = build_nsw(data, m=8)
    index = GpuSongIndex(graph, data, device="v100")
    results, timing = index.search_batch(data[:10], SearchConfig(k=10))
    print(results[0], timing.qps(10))
"""

from repro.core import (
    GRAPH_TYPES,
    BatchedSongSearcher,
    CpuSongIndex,
    GpuSongIndex,
    OptimizationLevel,
    SearchConfig,
    SearchStats,
    ShardedSongIndex,
    SongSearcher,
    algorithm1_search,
)
from repro.graphs import (
    FixedDegreeGraph,
    HNSWIndex,
    build_cagra,
    build_dpg,
    build_graph,
    build_knn_graph,
    build_nsg,
    build_nsw,
)
from repro.simt import DeviceSpec, get_device

__version__ = "1.0.0"

__all__ = [
    "SearchConfig",
    "SearchStats",
    "OptimizationLevel",
    "SongSearcher",
    "BatchedSongSearcher",
    "GpuSongIndex",
    "CpuSongIndex",
    "ShardedSongIndex",
    "algorithm1_search",
    "FixedDegreeGraph",
    "HNSWIndex",
    "GRAPH_TYPES",
    "build_cagra",
    "build_dpg",
    "build_graph",
    "build_knn_graph",
    "build_nsg",
    "build_nsw",
    "DeviceSpec",
    "get_device",
    "__version__",
]

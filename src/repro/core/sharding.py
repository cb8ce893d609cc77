"""Multi-GPU sharding (paper Section VII, closing paragraph).

    "when multiple GPUs are considered, we can shard the data for each
     GPU, build a graph index for each shard, perform graph search on
     each GPU and merge the results."

:class:`ShardedSongIndex` implements exactly that: the dataset is split
round-robin into ``num_shards`` shards, each shard gets its own proximity
graph and simulated device, every query runs on all shards in parallel
(wall time = slowest shard), and the per-shard top-k lists merge into the
global top-k.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import GpuSongIndex
from repro.graphs.nsw import build_nsw
from repro.graphs.storage import FixedDegreeGraph


class ShardedSongIndex:
    """SONG over a dataset sharded across multiple (simulated) GPUs.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    num_shards:
        Number of GPUs; shard ``i`` holds points with ``index % num_shards == i``.
    devices:
        Device preset per shard (a single name is broadcast).
    graph_builder:
        Callable ``(shard_data) -> FixedDegreeGraph``; defaults to NSW with
        the paper's construction parameters.
    """

    def __init__(
        self,
        data: np.ndarray,
        num_shards: int = 2,
        devices: Sequence[str] = "v100",
        graph_builder: Optional[Callable[[np.ndarray], FixedDegreeGraph]] = None,
    ) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        data = np.asarray(data)
        if num_shards > len(data):
            raise ValueError("more shards than data points")
        if isinstance(devices, str):
            devices = [devices] * num_shards
        if len(devices) != num_shards:
            raise ValueError("need one device per shard")
        if graph_builder is None:
            graph_builder = lambda d: build_nsw(d, m=8, ef_construction=48, seed=7)

        self.num_shards = num_shards
        self.data = data
        self._global_ids: List[np.ndarray] = []
        self.shards: List[GpuSongIndex] = []
        for s in range(num_shards):
            ids = np.arange(s, len(data), num_shards)
            shard_data = data[ids]
            graph = graph_builder(shard_data)
            self._global_ids.append(ids)
            self.shards.append(GpuSongIndex(graph, shard_data, device=devices[s]))

    def search_batch(
        self, queries: np.ndarray, config: SearchConfig
    ) -> Tuple[List[List[Tuple[float, int]]], dict]:
        """Search all shards and merge.

        Returns ``(results, timing)`` where ``timing`` has the parallel
        ``wall_seconds`` (the slowest shard's modelled time: every shard
        searches at once) and the merge-implied ``qps``.
        """
        queries = np.atleast_2d(np.asarray(queries))
        shard_outputs = []
        seconds = []
        for shard, ids in zip(self.shards, self._global_ids):
            results, timing = shard.search_batch(queries, config)
            remapped = [
                [(d, int(ids[v])) for d, v in res] for res in results
            ]
            shard_outputs.append(remapped)
            seconds.append(timing.total_seconds)

        merged: List[List[Tuple[float, int]]] = []
        for qi in range(len(queries)):
            pool: List[Tuple[float, int]] = []
            for out in shard_outputs:
                pool.extend(out[qi])
            pool.sort()
            merged.append(pool[: config.k])

        wall = max(seconds)
        timing = {
            "wall_seconds": wall,
            "qps": len(queries) / wall if wall > 0 else float("inf"),
        }
        return merged, timing

    def per_device_memory_bytes(self) -> List[int]:
        """Dataset + index bytes resident on each simulated GPU."""
        return [
            s.index_memory_bytes() + s.dataset_memory_bytes() for s in self.shards
        ]

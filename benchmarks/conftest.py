"""Shared benchmark assets.

Graph and index construction is expensive relative to the searches, so
everything is built once per session and cached by key.  Benchmarks are
sized laptop-scale; the *shapes* of the resulting curves — not absolute
numbers — are what reproduce the paper (see EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GpuSongIndex, HNSWIndex, build_nsw
from repro.baselines import IVFPQIndex
from repro.core.cpu_song import CpuSongIndex
from repro.data import Dataset, make_dataset


class BenchAssets:
    """Lazily-built, cached datasets/graphs/indexes for all benchmarks."""

    #: Laptop-scale sizes per dataset analogue.
    SIZES = {
        "nytimes": (2500, 100),
        "sift": (3000, 100),
        "glove200": (3000, 100),
        "uqv": (3000, 100),
        "gist": (2000, 100),
        "mnist8m": (2500, 100),
    }

    def __init__(self) -> None:
        self._cache = {}

    def dataset(self, name: str) -> Dataset:
        key = ("dataset", name)
        if key not in self._cache:
            n, q = self.SIZES[name]
            self._cache[key] = make_dataset(name, n=n, num_queries=q, seed=0)
        return self._cache[key]

    def saturated_queries(self, name: str, factor: int = 4) -> np.ndarray:
        """Query batch tiled to saturate the simulated device (paper: 10k)."""
        ds = self.dataset(name)
        return np.tile(ds.queries, (factor, 1))

    def nsw(self, name: str):
        key = ("nsw", name)
        if key not in self._cache:
            from _common import cached_graph

            ds = self.dataset(name)
            self._cache[key] = cached_graph(
                "nsw",
                ds.data,
                lambda: build_nsw(ds.data, m=8, ef_construction=48, seed=7),
                graph_type="nsw",
                m=8,
                ef_construction=48,
                seed=7,
            )
        return self._cache[key]

    def gpu_index(self, name: str, device: str = "v100") -> GpuSongIndex:
        key = ("gpu", name, device)
        if key not in self._cache:
            self._cache[key] = GpuSongIndex(
                self.nsw(name), self.dataset(name).data, device=device
            )
        return self._cache[key]

    def cpu_index(self, name: str) -> CpuSongIndex:
        key = ("cpu", name)
        if key not in self._cache:
            self._cache[key] = CpuSongIndex(self.nsw(name), self.dataset(name).data)
        return self._cache[key]

    def hnsw(self, name: str) -> HNSWIndex:
        key = ("hnsw", name)
        if key not in self._cache:
            ds = self.dataset(name)
            self._cache[key] = HNSWIndex(
                ds.data, m=8, ef_construction=48, seed=1
            ).build()
        return self._cache[key]

    @staticmethod
    def _pq_m(dim: int) -> int:
        """Largest sub-quantizer count ≤ 32 that divides the dimension."""
        for m in (32, 28, 25, 24, 20, 16, 14, 10, 8):
            if dim % m == 0:
                return m
        return 4

    def ivfpq(self, name: str) -> IVFPQIndex:
        key = ("ivfpq", name)
        if key not in self._cache:
            ds = self.dataset(name)
            idx = IVFPQIndex(
                ds.dim, nlist=32, m=self._pq_m(ds.dim), ksub=256, seed=0
            ).train(ds.data)
            idx.add(ds.data)
            self._cache[key] = idx
        return self._cache[key]

    # -- cached standard sweeps (shared by Fig. 5 / Table II / Fig. 6) -----

    QUEUE_GRID = (10, 20, 40, 80, 160, 320)
    NPROBE_GRID = (1, 2, 4, 8, 16, 32)

    def song_sweep(self, name: str, k: int):
        """SONG QPS-recall sweep on the saturated batch, standard grid."""
        from repro.data.datasets import Dataset
        from repro.eval import sweep_gpu_song

        key = ("sweep-song", name, k)
        if key not in self._cache:
            ds = self.dataset(name)
            sat = Dataset(
                name=name, data=ds.data, queries=self.saturated_queries(name)
            )
            self._cache[key] = sweep_gpu_song(
                sat, self.gpu_index(name), self.QUEUE_GRID, k=k
            )
        return self._cache[key]

    def hnsw_sweep(self, name: str, k: int):
        from repro.eval import sweep_hnsw

        key = ("sweep-hnsw", name, k)
        if key not in self._cache:
            self._cache[key] = sweep_hnsw(
                self.dataset(name), self.hnsw(name), self.QUEUE_GRID, k=k
            )
        return self._cache[key]

    def ivfpq_sweep(self, name: str, k: int):
        from repro.eval import sweep_ivfpq

        key = ("sweep-ivfpq", name, k)
        if key not in self._cache:
            self._cache[key] = sweep_ivfpq(
                self.dataset(name), self.ivfpq(name), self.NPROBE_GRID, k=k
            )
        return self._cache[key]


@pytest.fixture(scope="session")
def assets() -> BenchAssets:
    return BenchAssets()

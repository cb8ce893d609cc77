"""IVF+PQ index — the Faiss-GPU stand-in of the paper's comparison.

An inverted file over a k-means coarse quantizer; each list stores PQ
codes of the *residuals* (vector minus its centroid), exactly the Faiss
``IVFPQ`` layout.  Search visits the ``nprobe`` nearest lists and ranks
their codes with ADC tables.

``gpu_search_batch`` runs the same search and prices it with the
per-event charges SONG's lanes are priced with, so QPS-vs-recall curves
come from the same simulated device as SONG's.  The
quantization structure is what produces the paper's characteristic Faiss
behaviour: very fast per-candidate work, but a recall ceiling set by code
quality — visible on clustered datasets (NYTimes/GloVe analogues).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.baselines.kmeans import kmeans
from repro.baselines.pq import ProductQuantizer
from repro.simt.cost import CostModel, KernelResult
from repro.simt.device import get_device


class IVFPQIndex:
    """Inverted-file product-quantization ANN index.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    nlist:
        Coarse-quantizer centroids (inverted lists).
    m:
        PQ sub-quantizers (bytes per code).
    ksub:
        Centroids per PQ sub-space.
    seed:
        Training RNG seed.
    """

    def __init__(
        self, dim: int, nlist: int = 64, m: int = 8, ksub: int = 256, seed: int = 0
    ) -> None:
        if nlist <= 0:
            raise ValueError("nlist must be positive")
        self.dim = dim
        self.nlist = nlist
        self.seed = seed
        self.pq = ProductQuantizer(dim, m=m, ksub=ksub, seed=seed)
        self.centroids: np.ndarray = None  # (nlist, dim)
        self.lists: List[np.ndarray] = []  # per-list vector ids
        self.codes: List[np.ndarray] = []  # per-list (len, m) uint8
        self.ntotal = 0
        self.trained = False

    # -- construction -----------------------------------------------------

    def train(self, data: np.ndarray) -> "IVFPQIndex":
        """Fit the coarse quantizer and the PQ codebooks (on residuals)."""
        data = np.asarray(data, dtype=np.float64)
        if data.shape[1] != self.dim:
            raise ValueError("training data dimensionality mismatch")
        nlist = min(self.nlist, len(data))
        self.centroids, labels = kmeans(data, nlist, seed=self.seed)
        if nlist < self.nlist:
            self.nlist = nlist
        residuals = data - self.centroids[labels]
        self.pq.train(residuals)
        self.trained = True
        return self

    def add(self, data: np.ndarray) -> None:
        """Encode and store vectors in their inverted lists."""
        if not self.trained:
            raise RuntimeError("index not trained; call train() first")
        data = np.asarray(data, dtype=np.float64)
        base = self.ntotal
        labels = self._coarse_assign(data)
        residuals = data - self.centroids[labels]
        codes = self.pq.encode(residuals)
        new_lists: List[List[int]] = [[] for _ in range(self.nlist)]
        for i, c in enumerate(labels):
            new_lists[int(c)].append(i)
        if not self.lists:
            self.lists = [np.empty(0, dtype=np.int64) for _ in range(self.nlist)]
            self.codes = [
                np.empty((0, self.pq.m), dtype=np.uint8) for _ in range(self.nlist)
            ]
        for c in range(self.nlist):
            members = new_lists[c]
            if not members:
                continue
            ids = np.asarray(members, dtype=np.int64) + base
            self.lists[c] = np.concatenate([self.lists[c], ids])
            self.codes[c] = np.vstack([self.codes[c], codes[members]])
        self.ntotal += len(data)

    def _coarse_assign(self, data: np.ndarray) -> np.ndarray:
        d = (
            np.einsum("ij,ij->i", data, data)[:, None]
            - 2.0 * data @ self.centroids.T
            + np.einsum("ij,ij->i", self.centroids, self.centroids)[None, :]
        )
        return np.argmin(d, axis=1)

    # -- search ------------------------------------------------------------

    def search(
        self, query: np.ndarray, k: int, nprobe: int = 1
    ) -> List[Tuple[float, int]]:
        """Top-``k`` by ADC over the ``nprobe`` nearest lists."""
        return self._search(query, k, nprobe)[0]

    def _search(
        self, query: np.ndarray, k: int, nprobe: int
    ) -> Tuple[List[Tuple[float, int]], int]:
        """:meth:`search`'s results and the number of codes it scanned."""
        if not self.trained or self.ntotal == 0:
            raise RuntimeError("index empty; train() and add() first")
        if k <= 0:
            raise ValueError("k must be positive")
        nprobe = min(max(1, nprobe), self.nlist)
        query = np.asarray(query, dtype=np.float64)
        coarse = ((self.centroids - query) ** 2).sum(axis=1)
        probe_order = np.argsort(coarse, kind="stable")[:nprobe]

        all_ids: List[np.ndarray] = []
        all_d: List[np.ndarray] = []
        scanned = 0
        for c in probe_order:
            ids = self.lists[int(c)]
            scanned += len(ids)
            if not len(ids):
                continue
            # ADC on the residual: table built against (query - centroid).
            table = self.pq.adc_table(query - self.centroids[int(c)])
            d = self.pq.adc_distances(table, self.codes[int(c)])
            all_ids.append(ids)
            all_d.append(d)
        if not all_ids:
            return [], scanned
        ids = np.concatenate(all_ids)
        dists = np.concatenate(all_d)
        take = min(k, len(ids))
        top = np.argpartition(dists, take - 1)[:take]
        order = np.argsort(dists[top], kind="stable")
        return [(float(dists[top[i]]), int(ids[top[i]])) for i in order], scanned

    # -- simulated-GPU search ------------------------------------------------

    def gpu_search_batch(
        self,
        queries: np.ndarray,
        k: int,
        nprobe: int = 1,
        device: str = "v100",
    ) -> Tuple[List[List[Tuple[float, int]]], KernelResult]:
        """Batch search priced on the SIMT simulator.

        Charges per query, one warp each: coarse distances (``nlist ×
        dim`` flops, coalesced centroid reads), ``nprobe`` ADC tables
        (``ksub × dim`` flops each) and the list scans (``m``
        lookups/adds per code, coalesced code reads) plus a k-selection
        pass over the scanned codes.
        """
        cost = CostModel(get_device(device))
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        pq = self.pq
        outputs, scanned = [], []
        for query in queries:
            result, codes = self._search(query, k, nprobe)
            outputs.append(result)
            scanned.append(codes)
        scanned = np.array(scanned, dtype=np.int64)
        probes = min(max(1, nprobe), self.nlist)
        distance = (
            # Coarse quantizer scan.
            cost.coalesced_read(self.nlist * self.dim * 4)
            + cost.simd(self.nlist * 3 * self.dim) + cost.reduce(self.nlist)
            # ADC table build per probed list: ksub × dsub per sub-space,
            # written to shared memory.
            + probes * (cost.simd(pq.m * pq.ksub * 3 * pq.dsub) + pq.m * pq.ksub)
            # List scan: m lookups + adds per stored code.
            + cost.coalesced_read(scanned * pq.m) + cost.simd(scanned * 2 * pq.m)
        )
        # k-selection over scanned candidates (warp bitonic-ish pass).
        selection = [max(1, int(codes).bit_length()) * k for codes in scanned]
        maintain = cost.sequential(np.array(selection, dtype=np.int64))
        warp_cycles = (distance + maintain).tolist()
        total_bytes = len(queries) * self.nlist * self.dim * 4 + int(scanned.sum()) * pq.m
        shared = pq.m * pq.ksub * 4 + self.dim * 4  # ADC table + query vector
        result = KernelResult(
            outputs=outputs,
            kernel_seconds=cost.kernel_time(warp_cycles, total_bytes, shared),
            htod_seconds=cost.transfer_time(int(queries.nbytes)),
            dtoh_seconds=cost.transfer_time(len(queries) * k * 8),
            stage_cycles={
                "distance": float(distance.sum()),
                "maintain": float(maintain.sum()),
            },
            total_global_bytes=total_bytes,
            occupancy_warps_per_sm=cost.occupancy_warps_per_sm(shared),
            warp_cycles=warp_cycles,
        )
        return outputs, result

    # -- accounting -------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Device footprint: centroids + codebooks + codes + id lists."""
        if not self.trained:
            return 0
        centroid_bytes = int(self.nlist * self.dim * 4)
        code_bytes = sum(int(c.nbytes) for c in self.codes)
        id_bytes = sum(4 * len(ids) for ids in self.lists)
        return centroid_bytes + self.pq.memory_bytes() + code_bytes + id_bytes

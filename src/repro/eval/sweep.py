"""Parameter sweeps producing QPS-vs-recall curves.

Every figure in the paper's evaluation is a set of such curves: a search
parameter (SONG/HNSW queue size, Faiss ``nprobe``) is swept over a grid,
and each setting yields one ``(recall, qps)`` point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import SearchConfig
from repro.core.cpu_song import CpuSongIndex
from repro.core.gpu_kernel import GpuSongIndex
from repro.core.machine import DEFAULT_CPU, CpuModel
from repro.core.song import SongSearcher
from repro.baselines.ivfpq import IVFPQIndex
from repro.data.datasets import Dataset
from repro.distances import OpCounter
from repro.eval.recall import batch_recall
from repro.graphs.hnsw import HNSWIndex


@dataclass
class SweepPoint:
    """One setting of the sweep: parameter value, recall, throughput."""

    param: float
    recall: float
    qps: float
    extra: Dict[str, float] = field(default_factory=dict)


def _effective_queue_sizes(queue_sizes: Sequence[int], k: int) -> List[int]:
    """Clamp the grid at ``k`` and drop the resulting duplicates."""
    seen = []
    for qs in queue_sizes:
        eff = max(qs, k)
        if eff not in seen:
            seen.append(eff)
    return seen


def sweep_gpu_song(
    dataset: Dataset,
    index: GpuSongIndex,
    queue_sizes: Sequence[int],
    k: int = 10,
    config: Optional[SearchConfig] = None,
    ground_truth: Optional[np.ndarray] = None,
) -> List[SweepPoint]:
    """SONG on the simulated GPU across frontier queue sizes."""
    base = config or SearchConfig(k=k, queue_size=max(k, min(queue_sizes)))
    gt = ground_truth if ground_truth is not None else dataset.ground_truth(k)
    points = []
    for qs in _effective_queue_sizes(queue_sizes, k):
        cfg = base.with_options(k=k, queue_size=qs)
        results, timing = index.search_batch(dataset.queries, cfg)
        points.append(
            SweepPoint(
                param=qs,
                recall=batch_recall(results, gt),
                qps=timing.qps(dataset.num_queries),
                extra={
                    "kernel_seconds": timing.kernel_seconds,
                    "occupancy": timing.occupancy_warps_per_sm,
                },
            )
        )
    return points


def sweep_cpu_song(
    dataset: Dataset,
    index: CpuSongIndex,
    queue_sizes: Sequence[int],
    k: int = 10,
    config: Optional[SearchConfig] = None,
) -> List[SweepPoint]:
    """SONG's engineered CPU variant across queue sizes (Fig. 15)."""
    base = config or SearchConfig(k=k, queue_size=max(k, min(queue_sizes)))
    gt = dataset.ground_truth(k)
    points = []
    for qs in _effective_queue_sizes(queue_sizes, k):
        cfg = base.with_options(k=k, queue_size=qs)
        batch = index.search_batch(dataset.queries, cfg)
        points.append(
            SweepPoint(
                param=qs,
                recall=batch_recall(batch.results, gt),
                qps=batch.qps(),
            )
        )
    return points


def sweep_batched_song(
    dataset: Dataset,
    searcher: SongSearcher,
    queue_sizes: Sequence[int],
    k: int = 10,
    config: Optional[SearchConfig] = None,
    engine: str = "batched",
    ground_truth: Optional[np.ndarray] = None,
) -> List[SweepPoint]:
    """SONG's vectorized lockstep engine across queue sizes (wall clock).

    Unlike :func:`sweep_gpu_song` (modelled GPU time) this measures *real*
    wall-clock throughput of :meth:`SongSearcher.search_batch`, so serial
    and batched engines are directly comparable; pass ``engine="serial"``
    for the baseline curve.
    """
    base = config or SearchConfig(k=k, queue_size=max(k, min(queue_sizes)))
    gt = ground_truth if ground_truth is not None else dataset.ground_truth(k)
    points = []
    for qs in _effective_queue_sizes(queue_sizes, k):
        cfg = base.with_options(k=k, queue_size=qs)
        start = time.perf_counter()
        results = searcher.search_batch(dataset.queries, cfg, engine=engine)
        seconds = time.perf_counter() - start
        points.append(
            SweepPoint(
                param=qs,
                recall=batch_recall(results, gt),
                qps=dataset.num_queries / seconds if seconds > 0 else float("inf"),
                extra={"wall_seconds": seconds},
            )
        )
    return points


def sweep_hnsw(
    dataset: Dataset,
    index: HNSWIndex,
    efs: Sequence[int],
    k: int = 10,
    model: CpuModel = DEFAULT_CPU,
) -> List[SweepPoint]:
    """Single-thread HNSW across ``ef``; time from the CPU work model."""
    gt = dataset.ground_truth(k)
    dim = dataset.dim
    points = []
    for ef in _effective_queue_sizes(efs, k):
        counter = OpCounter()
        results = [
            index.search(q, k, ef=ef, counter=counter)
            for q in dataset.queries
        ]
        seconds = model.seconds(counter, bytes_read=4 * dim * counter.vector_reads)
        points.append(
            SweepPoint(
                param=ef,
                recall=batch_recall(results, gt),
                qps=dataset.num_queries / seconds if seconds > 0 else float("inf"),
            )
        )
    return points


def sweep_ivfpq(
    dataset: Dataset,
    index: IVFPQIndex,
    nprobes: Sequence[int],
    k: int = 10,
    device: str = "v100",
) -> List[SweepPoint]:
    """IVFPQ (Faiss stand-in) on the simulated GPU across ``nprobe``."""
    gt = dataset.ground_truth(k)
    points = []
    for nprobe in nprobes:
        results, timing = index.gpu_search_batch(
            dataset.queries, k, nprobe=nprobe, device=device
        )
        points.append(
            SweepPoint(
                param=nprobe,
                recall=batch_recall(results, gt),
                qps=timing.qps(dataset.num_queries),
            )
        )
    return points


def qps_at_recall(points: List[SweepPoint], target_recall: float) -> Optional[float]:
    """QPS a method achieves at a recall level (log-linear interpolation).

    Returns ``None`` when the method never reaches ``target_recall`` —
    the paper's "N/A" entries in Table II.
    """
    usable = sorted(points, key=lambda p: p.recall)
    if not usable or usable[-1].recall < target_recall:
        return None
    prev = None
    for point in usable:
        if point.recall >= target_recall:
            if prev is None or point.recall == prev.recall:
                return point.qps
            frac = (target_recall - prev.recall) / (point.recall - prev.recall)
            log_qps = (1 - frac) * np.log(max(prev.qps, 1e-12)) + frac * np.log(
                max(point.qps, 1e-12)
            )
            return float(np.exp(log_qps))
        prev = point
    return None

"""Synthetic traffic: seeded open-loop Poisson clients and loadtests.

An **open-loop** client fires requests at exponentially distributed
inter-arrival gaps regardless of how the server is doing — the honest
way to measure a serving system, since a closed-loop client slows down
exactly when the server struggles and flatters its tail latency.

:func:`run_loadtest` is the all-in-one harness: build a server, drive a
seeded Poisson arrival process against it on a virtual-time loop, and
report achieved QPS, p50/p99 latency, shed rate, recall-under-load and
the degradation behaviour — all deterministic for fixed seeds, because
both the clock and the arrival process are simulated.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.serve.clock import run_virtual
from repro.serve.request import ServeResponse
from repro.serve.server import SongServer

__all__ = [
    "LoadtestReport",
    "poisson_arrivals",
    "drive_poisson",
    "run_loadtest",
    "summarize",
]


def poisson_arrivals(
    rate_qps: float, num_requests: int, seed: int = 0
) -> np.ndarray:
    """Arrival timestamps of an open-loop Poisson process (seconds)."""
    if rate_qps <= 0:
        raise ValueError("rate_qps must be positive")
    if num_requests <= 0:
        raise ValueError("num_requests must be positive")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_qps, size=num_requests)
    return np.cumsum(gaps)


async def drive_poisson(
    server: SongServer,
    queries: np.ndarray,
    rate_qps: float,
    num_requests: int,
    seed: int = 0,
    ground_truth: Optional[np.ndarray] = None,
) -> List[ServeResponse]:
    """Fire a Poisson request stream at a running server; gather responses.

    Queries are drawn round-robin from ``queries`` (and ground-truth rows
    alongside, when given).
    """
    loop = asyncio.get_running_loop()
    arrivals = poisson_arrivals(rate_qps, num_requests, seed)
    start = loop.time()
    tasks: List[asyncio.Task] = []
    for i in range(num_requests):
        gap = start + float(arrivals[i]) - loop.time()
        if gap > 0:
            await asyncio.sleep(gap)
        qi = i % len(queries)
        gt = None if ground_truth is None else ground_truth[qi]
        tasks.append(asyncio.create_task(server.submit(queries[qi], ground_truth=gt)))
    return list(await asyncio.gather(*tasks))


@dataclass
class LoadtestReport:
    """Summary of one offered-load point."""

    offered_qps: float
    num_requests: int
    completed: int
    shed: int
    shed_rate: float
    achieved_qps: float
    p50_latency_s: float
    p99_latency_s: float
    mean_batch_size: float
    slo_p99_s: float
    slo_met: bool
    recall: Optional[float]
    degraded_fraction: float
    final_tier: int
    duration_s: float
    metrics: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Deterministically rounded JSON-able view."""
        return {
            "offered_qps": round(self.offered_qps, 3),
            "num_requests": self.num_requests,
            "completed": self.completed,
            "shed": self.shed,
            "shed_rate": round(self.shed_rate, 6),
            "achieved_qps": round(self.achieved_qps, 3),
            "p50_latency_ms": round(1e3 * self.p50_latency_s, 6),
            "p99_latency_ms": round(1e3 * self.p99_latency_s, 6),
            "mean_batch_size": round(self.mean_batch_size, 3),
            "slo_p99_ms": round(1e3 * self.slo_p99_s, 6),
            "slo_met": self.slo_met,
            "recall": None if self.recall is None else round(self.recall, 6),
            "degraded_fraction": round(self.degraded_fraction, 6),
            "final_tier": self.final_tier,
            "duration_s": round(self.duration_s, 6),
        }


async def _loadtest_run(
    server: SongServer,
    queries: np.ndarray,
    rate_qps: float,
    num_requests: int,
    seed: int,
    ground_truth: Optional[np.ndarray],
) -> LoadtestReport:
    loop = asyncio.get_running_loop()
    start = loop.time()
    await server.start()
    responses = await drive_poisson(
        server, queries, rate_qps, num_requests, seed=seed, ground_truth=ground_truth
    )
    await server.stop()
    duration = loop.time() - start
    return summarize(server, responses, rate_qps, duration)


def summarize(
    server: SongServer,
    responses: Sequence[ServeResponse],
    offered_qps: float,
    duration_s: float,
) -> LoadtestReport:
    """Fold a response list plus server metrics into a report."""
    completed = [r for r in responses if r.ok]
    shed = len(responses) - len(completed)
    metrics = server.metrics_dict()
    latency = server.metrics.stage_latency["total"]
    slo = server.config.admission.slo_p99_s
    p99 = latency.percentile(99)
    tiers = server.metrics.tier_counts
    degraded = sum(c for t, c in tiers.items() if t > 0)
    return LoadtestReport(
        offered_qps=offered_qps,
        num_requests=len(responses),
        completed=len(completed),
        shed=shed,
        shed_rate=shed / len(responses) if responses else 0.0,
        achieved_qps=len(completed) / duration_s if duration_s > 0 else 0.0,
        p50_latency_s=latency.percentile(50),
        p99_latency_s=p99,
        mean_batch_size=server.metrics.mean_batch_size(),
        slo_p99_s=slo,
        slo_met=p99 <= slo,
        recall=server.metrics.overall_recall(),
        degraded_fraction=degraded / max(1, sum(tiers.values())),
        final_tier=server.admission.tier,
        duration_s=duration_s,
        metrics=metrics,
    )


def run_loadtest(
    make_server,
    queries: np.ndarray,
    rate_qps: float,
    num_requests: int,
    seed: int = 0,
    ground_truth: Optional[np.ndarray] = None,
) -> LoadtestReport:
    """One offered-load point on a fresh virtual-time loop.

    ``make_server`` is a zero-argument factory (servers bind asyncio
    primitives to the loop they run on, so each loadtest needs a fresh
    instance).  Fully deterministic for fixed seeds.
    """
    async def main() -> LoadtestReport:
        server = make_server()
        return await _loadtest_run(
            server, queries, rate_qps, num_requests, seed, ground_truth
        )

    return run_virtual(main())

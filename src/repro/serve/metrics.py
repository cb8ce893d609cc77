"""Serving metrics core: histograms, counters, gauges, JSON export.

Every pipeline stage reports into one :class:`ServeMetrics` instance:

- **per-stage latency histograms** (``queue_wait`` / ``service`` /
  ``total``) as log-bucketed :class:`LatencyHistogram`\\ s — constant
  memory, deterministic percentile extraction;
- **queue depth** sampled at every admission and dispatch;
- **batch-size distribution** of dispatched batches;
- **counters** for arrivals, completions, sheds (by reason), engine
  errors and degraded requests (by tier);
- **recall under load** per quality tier, when callers attach ground
  truth to their requests.

:meth:`ServeMetrics.to_dict` renders everything as a JSON-able snapshot;
the loadtest CLI and ``bench_serving`` persist it verbatim, which is why
all outputs are rounded deterministically and keys are sorted.
"""

from __future__ import annotations

# lint: hot-path

from bisect import bisect_left
from typing import Dict, Optional

import numpy as np

__all__ = ["LatencyHistogram", "ServeMetrics"]

#: Histogram bucket geometry: upper edges from 100 ns to ~17 min, ratio 2**0.25.
_EDGE_LO = 1e-7
_EDGE_RATIO = 2.0 ** 0.25
_NUM_BUCKETS = 136


def _bucket_edges() -> np.ndarray:
    return _EDGE_LO * _EDGE_RATIO ** np.arange(_NUM_BUCKETS, dtype=np.float64)


#: The same float64 edges as a list, for :meth:`LatencyHistogram.observe`'s
#: ``bisect_left`` (equal to ``searchsorted(side="left")`` on the array).
_EDGE_LIST = _bucket_edges().tolist()


class LatencyHistogram:
    """Log-bucketed histogram of nonnegative durations (seconds).

    Buckets are geometric (ratio :math:`2^{1/4}`, ~19% relative width),
    so any percentile is recovered within one bucket's relative error —
    plenty for p50/p99 serving curves — at fixed memory.  Exact count,
    sum, min and max are tracked alongside.
    """

    def __init__(self) -> None:
        self._edges = _bucket_edges()
        self._counts = np.zeros(_NUM_BUCKETS + 1, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration: :meth:`observe_many` of one, in plain floats."""
        seconds = float(seconds)
        if not seconds >= 0:
            raise ValueError("durations must be nonnegative numbers")
        self._counts[bisect_left(_EDGE_LIST, seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def observe_many(self, seconds: np.ndarray) -> None:
        """Record a vector of durations in one bucketing pass."""
        seconds = np.asarray(seconds, dtype=np.float64)
        if seconds.size == 0:
            return
        if not (seconds >= 0).all():
            raise ValueError("durations must be nonnegative numbers")
        idx = np.searchsorted(self._edges, seconds, side="left")
        np.add.at(self._counts, idx, 1)
        self.count += int(seconds.size)
        self.total += float(seconds.sum())
        self.min = min(self.min, float(seconds.min()))
        self.max = max(self.max, float(seconds.max()))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate ``p``-th percentile (0 < p <= 100).

        Returns the geometric midpoint of the bucket holding the rank,
        clamped to the observed min/max so tiny samples stay sensible.
        """
        if not 0.0 < p <= 100.0:
            raise ValueError("p must be in (0, 100]")
        if self.count == 0:
            return 0.0
        rank = int(np.ceil(p / 100.0 * self.count))
        cum = np.cumsum(self._counts)
        b = int(np.searchsorted(cum, rank, side="left"))
        if b == 0:
            mid = self._edges[0] / np.sqrt(_EDGE_RATIO)
        elif b >= _NUM_BUCKETS:
            mid = self._edges[-1] * np.sqrt(_EDGE_RATIO)
        else:
            mid = float(np.sqrt(self._edges[b - 1] * self._edges[b]))
        return float(min(max(mid, self.min), self.max))

    def to_dict(self) -> Dict[str, float]:
        """JSON-able summary (count, mean, min/max, p50/p90/p99)."""
        return {
            "count": self.count,
            "mean_s": round(self.mean, 9),
            "min_s": round(self.min if self.count else 0.0, 9),
            "max_s": round(self.max, 9),
            "p50_s": round(self.percentile(50), 9),
            "p90_s": round(self.percentile(90), 9),
            "p99_s": round(self.percentile(99), 9),
        }


class ServeMetrics:
    """Aggregated observability for one server instance."""

    #: Latency stages every served request reports.
    STAGES = ("queue_wait", "service", "total")

    def __init__(self) -> None:
        self.stage_latency: Dict[str, LatencyHistogram] = {
            s: LatencyHistogram() for s in self.STAGES
        }
        self.queue_depth = LatencyHistogram()  # depths, not durations
        self.batch_sizes: Dict[int, int] = {}
        self.counters: Dict[str, int] = {
            "arrived": 0,
            "admitted": 0,
            "completed": 0,
            "errors": 0,
            "shed": 0,
            "degraded": 0,
            "batches": 0,
        }
        self.shed_reasons: Dict[str, int] = {}
        self.tier_counts: Dict[int, int] = {}
        self._recall_sum: Dict[int, float] = {}
        self._recall_n: Dict[int, int] = {}
        # Device-side stream accounting (engine-busy vs makespan sums).
        self._device_batches = 0
        self._device_htod_s = 0.0
        self._device_kernel_s = 0.0
        self._device_dtoh_s = 0.0
        self._device_makespan_s = 0.0

    # -- event sinks -----------------------------------------------------

    def on_arrival(self, queue_depth: int) -> None:
        """A request reached admission with the given queue depth."""
        self.counters["arrived"] += 1
        self.queue_depth.observe(float(queue_depth))

    def on_admit(self) -> None:
        """Admission accepted a request into the pending queue."""
        self.counters["admitted"] += 1

    def on_shed(self, reason: str) -> None:
        """A request was shed (rejected or expired)."""
        self.counters["shed"] += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1

    def on_error(self) -> None:
        """A dispatched request's batch raised in its engine."""
        self.counters["errors"] += 1

    def on_batch(self, size: int, queue_depth_after: int) -> None:
        """The batcher dispatched a batch of ``size`` requests."""
        self.counters["batches"] += 1
        self.batch_sizes[size] = self.batch_sizes.get(size, 0) + 1
        self.queue_depth.observe(float(queue_depth_after))

    def on_complete(
        self,
        tier: int,
        queue_wait_s: float,
        service_s: float,
        recall: Optional[float] = None,
    ) -> None:
        """A request finished service; record its latency breakdown."""
        self.counters["completed"] += 1
        if tier > 0:
            self.counters["degraded"] += 1
        self.tier_counts[tier] = self.tier_counts.get(tier, 0) + 1
        self.stage_latency["queue_wait"].observe(queue_wait_s)
        self.stage_latency["service"].observe(service_s)
        self.stage_latency["total"].observe(queue_wait_s + service_s)
        if recall is not None:
            self._recall_sum[tier] = self._recall_sum.get(tier, 0.0) + recall
            self._recall_n[tier] = self._recall_n.get(tier, 0) + 1

    def on_device_batch(
        self, htod_s: float, kernel_s: float, dtoh_s: float, makespan_s: float
    ) -> None:
        """One batch's device schedule: per-engine busy time vs makespan.

        Summing per-batch makespans (rather than wall-clock windows)
        keeps the derived overlap views load-independent: idle gaps
        between batches don't dilute them.
        """
        self._device_batches += 1
        self._device_htod_s += htod_s
        self._device_kernel_s += kernel_s
        self._device_dtoh_s += dtoh_s
        self._device_makespan_s += makespan_s

    # -- derived views ---------------------------------------------------

    def overlap_efficiency(self) -> float:
        """Engine-busy seconds per makespan second across device batches.

        1.0 means fully serial (the streams=1 model); up to 3.0 when
        both copy engines and the SMs are all hidden behind each other.
        """
        if self._device_makespan_s <= 0.0:
            return 0.0
        busy = self._device_htod_s + self._device_kernel_s + self._device_dtoh_s
        return busy / self._device_makespan_s

    def transfer_hidden_fraction(self) -> float:
        """Fraction of PCIe transfer time hidden behind other engines."""
        transfers = self._device_htod_s + self._device_dtoh_s
        if transfers <= 0.0 or self._device_makespan_s <= 0.0:
            return 0.0
        busy = self._device_htod_s + self._device_kernel_s + self._device_dtoh_s
        hidden = busy - self._device_makespan_s
        return min(1.0, max(0.0, hidden / transfers))

    def shed_rate(self) -> float:
        """Fraction of arrivals that were shed."""
        arrived = self.counters["arrived"]
        return self.counters["shed"] / arrived if arrived else 0.0

    def recall_by_tier(self) -> Dict[int, float]:
        """Mean recall of completed requests per quality tier."""
        return {
            t: self._recall_sum[t] / self._recall_n[t]
            for t in sorted(self._recall_n)
            if self._recall_n[t]
        }

    def overall_recall(self) -> Optional[float]:
        """Mean recall over all requests that carried ground truth."""
        n = sum(self._recall_n.values())
        if not n:
            return None
        return sum(self._recall_sum.values()) / n

    def mean_batch_size(self) -> float:
        served = sum(s * c for s, c in self.batch_sizes.items())
        batches = self.counters["batches"]
        return served / batches if batches else 0.0

    def to_dict(self) -> Dict[str, object]:
        """Deterministic JSON-able snapshot of every metric family."""
        recall = self.overall_recall()
        return {
            "counters": dict(sorted(self.counters.items())),
            "shed_rate": round(self.shed_rate(), 6),
            "shed_reasons": dict(sorted(self.shed_reasons.items())),
            "latency": {
                s: self.stage_latency[s].to_dict() for s in self.STAGES
            },
            "queue_depth": {
                "mean": round(self.queue_depth.mean, 3),
                "max": round(self.queue_depth.max, 1),
            },
            "batch_size": {
                "mean": round(self.mean_batch_size(), 3),
                "distribution": {
                    str(s): c for s, c in sorted(self.batch_sizes.items())
                },
            },
            "tiers": {str(t): c for t, c in sorted(self.tier_counts.items())},
            "streams": {
                "device_batches": self._device_batches,
                "htod_s": round(self._device_htod_s, 9),
                "kernel_s": round(self._device_kernel_s, 9),
                "dtoh_s": round(self._device_dtoh_s, 9),
                "makespan_s": round(self._device_makespan_s, 9),
                "overlap_efficiency": round(self.overlap_efficiency(), 6),
                "transfer_hidden_fraction": round(
                    self.transfer_hidden_fraction(), 6
                ),
            },
            "recall": None if recall is None else round(recall, 6),
            "recall_by_tier": {
                str(t): round(r, 6) for t, r in self.recall_by_tier().items()
            },
        }

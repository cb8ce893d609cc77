"""Routing: replicas and stream-pool dispatch.

A :class:`Replica` wraps one serving engine with a device occupancy
model and in-flight accounting.  With ``streams=1`` (the default) the
device is an exclusive lock — one batch occupies the simulated GPU at a
time and is charged the serial HtoD + kernel + DtoH cost, bit-identical
to the pre-stream serving model.  With ``streams=N`` the replica holds a
pool of N CUDA-style streams backed by a
:class:`~repro.simt.streams.DeviceTimeline`: up to N batches are in
flight at once, each split into double-buffered chunks whose HtoD
overlaps the previous chunk's kernel, with concurrent kernels sharing SM
capacity and both PCIe directions modelled as single in-order copy
engines.  The :class:`Router` spreads batches across replicas:

- ``"least-loaded"`` (default) — join-the-shortest-queue on the pending
  batch count, ties broken by replica index (deterministic);
- ``"round-robin"`` — strict rotation.

Every replica serves a static index and every batch is a search, so
batches need no read/write discipline beyond the device lock or stream
slot they occupy.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import SearchConfig
from repro.serve.engine import BatchServiceResult
from repro.simt.streams import DeviceTimeline

__all__ = ["ROUTING_POLICIES", "Replica", "Router"]

#: Valid routing policies.
ROUTING_POLICIES = ("least-loaded", "round-robin")


class Replica:
    """One engine behind a stream pool, with in-flight accounting.

    Parameters
    ----------
    engine:
        The serving engine.
    name:
        Replica label (defaults to the engine's).
    streams:
        Device streams.  ``1`` keeps the legacy exclusive-lock serial
        path; ``N > 1`` admits up to N concurrent batches, scheduled on
        a :class:`~repro.simt.streams.DeviceTimeline` (requires an
        engine with ``chunked_batch``).
    """

    def __init__(
        self, engine, name: Optional[str] = None, streams: int = 1
    ) -> None:
        if streams < 1:
            raise ValueError("streams must be >= 1")
        self.engine = engine
        self.name = name or getattr(engine, "name", "replica")
        self.streams = int(streams)
        self._device_lock = asyncio.Lock()
        self._stream_slots: Optional[asyncio.Semaphore] = None
        self.timeline: Optional[DeviceTimeline] = None
        if self.streams > 1:
            if not hasattr(engine, "chunked_batch"):
                raise ValueError(
                    f"engine {self.name!r} does not support multi-stream "
                    "dispatch (needs chunked_batch)"
                )
            self.timeline = DeviceTimeline(engine.device, self.streams)
        self._submitted = 0
        self.pending_batches = 0
        self.batches_served = 0
        self.busy_seconds = 0.0

    def _slots(self) -> asyncio.Semaphore:
        # Created lazily so the semaphore binds the loop it is used on.
        if self._stream_slots is None:
            self._stream_slots = asyncio.Semaphore(self.streams)
        return self._stream_slots

    def _run_streamed(self, queries: np.ndarray, config: SearchConfig):
        """Price one batch on the stream timeline (no awaits: the
        schedule commits atomically at submission)."""
        results, chunks, detail = self.engine.chunked_batch(
            queries, config, num_chunks=None, max_chunks=self.streams
        )
        now = asyncio.get_running_loop().time()
        sched = self.timeline.submit_batch(chunks, now, label=f"b{self._submitted}")
        self._submitted += 1
        detail = dict(detail)
        detail["schedule"] = sched.to_dict()
        return BatchServiceResult(results, sched.finish_s - now, detail)

    async def run_batch(
        self, queries: np.ndarray, config: SearchConfig
    ) -> BatchServiceResult:
        """Run one search batch: compute, then occupy the device."""
        self.pending_batches += 1
        try:
            if self.streams <= 1:
                async with self._device_lock:
                    outcome = self.engine.run_batch(queries, config)
                    await asyncio.sleep(outcome.service_seconds)
            else:
                async with self._slots():
                    outcome = self._run_streamed(queries, config)
                    await asyncio.sleep(outcome.service_seconds)
        finally:
            self.pending_batches -= 1
        self.batches_served += 1
        self.busy_seconds += outcome.service_seconds
        return outcome

    def stats(self) -> Dict[str, object]:
        """Per-replica serving stats for reports."""
        out: Dict[str, object] = {
            "name": self.name,
            "batches": self.batches_served,
            "busy_seconds": round(self.busy_seconds, 9),
            "streams": self.streams,
        }
        if self.timeline is not None:
            out["device_timeline"] = self.timeline.stats()
        return out


class Router:
    """Spreads batches over replicas with a deterministic policy."""

    def __init__(self, replicas: Sequence[Replica], policy: str = "least-loaded"):
        if not replicas:
            raise ValueError("need at least one replica")
        if policy not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {policy!r}; "
                f"expected one of {ROUTING_POLICIES}"
            )
        self.replicas = list(replicas)
        self.policy = policy
        self._rr = 0

    def pick(self) -> Replica:
        """Choose the replica for the next batch."""
        if self.policy == "round-robin":
            replica = self.replicas[self._rr % len(self.replicas)]
            self._rr += 1
            return replica
        loads = [r.pending_batches for r in self.replicas]
        return self.replicas[loads.index(min(loads))]

    def stats(self) -> List[Dict[str, object]]:
        """Per-replica stats, in replica order."""
        return [r.stats() for r in self.replicas]

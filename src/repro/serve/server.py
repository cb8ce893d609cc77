"""The serving front end: admission → dynamic batcher → router → engine.

:class:`SongServer` is the traffic-facing object.  Callers ``await
submit(query)`` and get a :class:`~repro.serve.request.ServeResponse`;
internally the request flows through

1. **admission** — bounded queue, shed/degrade/block policy
   (:mod:`repro.serve.admission`);
2. **dynamic batching** — size-or-deadline batch formation with
   SLO-adaptive sizing (:mod:`repro.serve.batcher`);
3. **routing** — least-loaded replica selection over device streams
   (:mod:`repro.serve.router`);
4. **engine execution** — batch results plus simulated-GPU service time
   (:mod:`repro.serve.engine`), charged against the event-loop clock.

Serving is read-only: the index a replica holds is built offline and
never changes while it serves.  A batch whose engine raises resolves
every one of its requests with ``status="error"``; the server keeps
serving the batches after it.

Every stage reports into a :class:`~repro.serve.metrics.ServeMetrics`
instance exported as JSON via :meth:`SongServer.metrics_dict`.

The server is clock-agnostic: on a normal asyncio loop it serves in
real time; on a :class:`~repro.serve.clock.VirtualTimeEventLoop` the
same code yields deterministic simulated-time experiments.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import SearchConfig
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    BatchObservation,
    default_tiers,
)
from repro.serve.batcher import BatchPolicy, DynamicBatcher
from repro.serve.engine import SimulatedGpuEngine
from repro.serve.metrics import ServeMetrics
from repro.serve.request import ServeRequest, ServeResponse
from repro.serve.router import Replica, Router

__all__ = ["ServerConfig", "SongServer", "build_server"]


@dataclass
class ServerConfig:
    """Everything a :class:`SongServer` needs besides its replicas."""

    base: SearchConfig = field(default_factory=lambda: SearchConfig(k=10, queue_size=64))
    tiers: Optional[Sequence[SearchConfig]] = None
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    batch: BatchPolicy = field(default_factory=BatchPolicy)
    routing: str = "least-loaded"

    def resolved_tiers(self) -> List[SearchConfig]:
        """The degradation ladder (derived from ``base`` when not given)."""
        if self.tiers is not None:
            return list(self.tiers)
        return default_tiers(self.base)


class SongServer:
    """An in-process ANN serving instance over one or more replicas."""

    def __init__(self, replicas: Sequence[Replica], config: ServerConfig) -> None:
        self.config = config
        self.router = Router(replicas, policy=config.routing)
        self.admission = AdmissionController(
            config.admission, config.resolved_tiers()
        )
        self.metrics = ServeMetrics()
        # Pipelined dispatch: one slot per device stream, so the next
        # batch's HtoD can be admitted while the current batch computes.
        self.batcher = DynamicBatcher(
            config.batch,
            config.admission.slo_p99_s,
            self._dispatch,
            max_inflight=sum(getattr(r, "streams", 1) for r in replicas),
        )
        self._run_task: Optional[asyncio.Task] = None
        self._next_id = 0

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        """Start the batch-formation loop."""
        if self._run_task is not None:
            raise RuntimeError("server already started")
        self._run_task = asyncio.create_task(self.batcher.run())

    async def stop(self) -> None:
        """Drain pending and in-flight work, then stop."""
        if self._run_task is None:
            return
        self.batcher.stop()
        await self._run_task
        self._run_task = None
        await self.batcher.drain()

    # -- client API ------------------------------------------------------

    async def submit(
        self, query: np.ndarray, ground_truth: Optional[np.ndarray] = None
    ) -> ServeResponse:
        """Serve one query; resolves when it completes or is shed."""
        loop = asyncio.get_running_loop()
        request = ServeRequest(
            request_id=self._take_id(),
            payload=np.asarray(query, dtype=np.float32),
            arrival_s=loop.time(),
            future=loop.create_future(),
            ground_truth=ground_truth,
        )
        self.metrics.on_arrival(self.batcher.queue_depth)
        admitted, reason = await self.admission.try_admit(self.batcher.queue_depth)
        if not admitted:
            self._shed(request, reason)
            return await request.future
        self.metrics.on_admit()
        self.batcher.enqueue(request)
        return await request.future

    # -- pipeline internals ----------------------------------------------

    def _take_id(self) -> int:
        rid = self._next_id
        self._next_id += 1
        return rid

    def _shed(self, request: ServeRequest, reason: str) -> None:
        self.metrics.on_shed(reason)
        request.resolve(
            ServeResponse(
                request_id=request.request_id, status="shed", shed_reason=reason
            )
        )

    async def _dispatch(self, batch: List[ServeRequest]) -> None:
        """Run one formed batch on a routed replica and resolve futures."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        for _ in batch:
            self.admission.release_slot()
        deadline = self.admission.shed_deadline_s()
        if deadline is not None:
            keep = []
            for request in batch:
                if now - request.arrival_s > deadline:
                    self._shed(request, "expired")
                else:
                    keep.append(request)
            batch = keep
        if not batch:
            return
        tier = self.admission.tier
        cfg = self.admission.current_config()
        self.metrics.on_batch(len(batch), self.batcher.queue_depth)
        queries = np.stack([r.payload for r in batch])
        replica = self.router.pick()
        for request in batch:
            request.dispatch_s = now
        try:
            outcome = await replica.run_batch(queries, cfg)
        except Exception as exc:
            # Resolve every caller: an unresolved future would park its
            # submit() forever, and re-raising would only orphan the
            # exception on a dispatch task nobody awaits for a result.
            error = f"{type(exc).__name__}: {exc}"
            for request in batch:
                self.metrics.on_error()
                request.resolve(
                    ServeResponse(
                        request_id=request.request_id,
                        status="error",
                        replica=replica.name,
                        error=error,
                    )
                )
            return
        done = loop.time()
        service = outcome.service_seconds
        self._observe_device(outcome)
        for i, request in enumerate(batch):
            total = done - request.arrival_s
            wait = max(0.0, total - service)
            recall = _recall_of(
                outcome.results[i], request.ground_truth, self.config.base.k
            )
            self.metrics.on_complete(tier, wait, service, recall)
            request.resolve(
                ServeResponse(
                    request_id=request.request_id,
                    status="ok",
                    results=outcome.results[i],
                    tier=tier,
                    ef=cfg.queue_size,
                    queue_wait_s=wait,
                    service_s=service,
                    latency_s=total,
                    batch_size=len(batch),
                    replica=replica.name,
                    recall=recall,
                )
            )
        observation = BatchObservation(
            batch_size=len(batch),
            service_seconds=service,
            queue_depth_after=self.batcher.queue_depth,
            tier=tier,
        )
        self.admission.observe_batch(observation)
        self.batcher.controller.observe(
            len(batch), service, self.batcher.queue_depth
        )

    def _observe_device(self, outcome) -> None:
        """Feed device-side stream accounting into the metrics."""
        detail = outcome.detail
        sched = detail.get("schedule")
        if sched is not None:
            self.metrics.on_device_batch(
                sched["htod_s"], sched["kernel_s"], sched["dtoh_s"],
                sched["makespan_s"],
            )
        elif "kernel_seconds" in detail:
            # Serial path: the makespan IS the serial sum (overlap = 1).
            self.metrics.on_device_batch(
                detail["htod_seconds"],
                detail["kernel_seconds"],
                detail["dtoh_seconds"],
                outcome.service_seconds,
            )

    # -- observability ---------------------------------------------------

    def metrics_dict(self) -> Dict[str, object]:
        """JSON-able metrics snapshot including per-replica stats."""
        out = self.metrics.to_dict()
        out["replicas"] = self.router.stats()
        # Streamed replicas overlap *across* batches, which per-batch
        # makespans cannot see; replace the overlap views with the
        # device-timeline window-union aggregates when available.
        timelines = [
            r["device_timeline"] for r in out["replicas"] if "device_timeline" in r
        ]
        if timelines:
            window = sum(t["window_s"] for t in timelines)
            transfers = sum(t["htod_busy_s"] + t["dtoh_busy_s"] for t in timelines)
            busy = transfers + sum(t["kernel_busy_s"] for t in timelines)
            streams = out["streams"]
            streams["window_s"] = round(window, 9)
            streams["overlap_efficiency"] = (
                round(busy / window, 6) if window > 0.0 else 0.0
            )
            streams["transfer_hidden_fraction"] = (
                round(min(1.0, max(0.0, (busy - window) / transfers)), 6)
                if transfers > 0.0 and window > 0.0
                else 0.0
            )
        out["tier_ladder"] = [cfg.queue_size for cfg in self.admission.tiers]
        out["final_tier"] = self.admission.tier
        out["final_batch_target"] = self.batcher.controller.target
        return out


def _recall_of(results, ground_truth, k: int) -> Optional[float]:
    """Recall@k of one result list against optional exact ids."""
    if ground_truth is None:
        return None
    truth = set(np.asarray(ground_truth)[:k].tolist())
    found = {v for _, v in results}
    return len(truth & found) / max(1, len(truth))


def build_server(
    graph,
    data: np.ndarray,
    config: Optional[ServerConfig] = None,
    num_replicas: int = 1,
    device: str = "v100",
    streams: int = 1,
    tier=None,
    prefetch: bool = True,
) -> SongServer:
    """Convenience: a server over ``num_replicas`` copies of one index.

    Each replica models an independent device serving the same graph and
    dataset — the simplest production topology (full replication) — with
    ``streams`` CUDA-style streams per device (1 = the serial model).
    With ``tier`` (a :class:`~repro.tiered.TieredConfig`) each replica
    serves through the out-of-core tier instead: compressed-resident
    traversal plus PCIe-metered exact re-ranking, with ``prefetch``
    selecting staged/overlapped page fetches vs serial demand fetches.
    """
    if num_replicas <= 0:
        raise ValueError("num_replicas must be positive")
    config = config or ServerConfig()
    if tier is not None:
        from repro.tiered.engine import TieredServeEngine

        replicas = [
            Replica(
                TieredServeEngine(
                    graph,
                    data,
                    tier,
                    device=device,
                    name=f"tiered{i}",
                    prefetch=prefetch,
                ),
                streams=streams,
            )
            for i in range(num_replicas)
        ]
    else:
        replicas = [
            Replica(
                SimulatedGpuEngine(graph, data, device=device, name=f"gpu{i}"),
                streams=streams,
            )
            for i in range(num_replicas)
        ]
    return SongServer(replicas, config)

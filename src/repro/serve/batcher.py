"""Dynamic batching: deadline-or-size dispatch with SLO-adaptive sizing.

GPU throughput comes from batch parallelism — the simulated cost model,
like real hardware, makes a batch of 64 barely slower than a batch of 8
until the machine saturates — but batches only form if someone waits for
them.  :class:`DynamicBatcher` implements the standard dynamic-batching
contract: accumulate admitted requests and dispatch when either

- the batch reaches the current **target size**, or
- the oldest request has waited **max_wait** (so a lone query is never
  held hostage by an empty queue).

The target size is a control variable, not a constant.  After every
batch the :class:`BatchSizeController` observes the simulated-GPU
service time and the residual queue depth and adapts:

- **grow** (x2, up to ``max_batch``) while a backlog exists and one
  batch's service time still fits inside its share of the SLO — larger
  batches raise throughput, which is the only way to drain a queue;
- **shrink** (x0.75) when a single batch's service time alone eats the
  SLO budget — at that point batching hurts the tail instead of
  helping;
- **decay** slowly toward ``min_batch`` when the queue runs empty, so a
  lightly loaded server returns to latency-optimal small batches.

``mode="fixed"`` freezes the target at ``batch_size`` — the baseline
policy the serving benchmark compares against.
"""

from __future__ import annotations

# lint: hot-path

import asyncio
from collections import deque
from dataclasses import dataclass
from typing import Awaitable, Callable, Deque, Dict, List

from repro.serve.clock import gather_all
from repro.serve.request import ServeRequest

__all__ = ["BATCH_MODES", "BatchPolicy", "BatchSizeController", "DynamicBatcher"]

#: Valid batch-sizing modes.
BATCH_MODES = ("fixed", "adaptive")


@dataclass
class BatchPolicy:
    """Tunables of the dynamic batcher.

    Attributes
    ----------
    mode:
        ``"adaptive"`` lets the controller resize batches; ``"fixed"``
        always targets ``batch_size``.
    batch_size:
        Initial (and fixed-mode) target batch size.
    min_batch / max_batch:
        Adaptive target bounds.
    max_wait_s:
        Dispatch deadline for a partial batch, measured from the oldest
        pending request's arrival.
    service_slo_fraction:
        Share of the SLO one batch's service time may consume before the
        controller shrinks the target.
    """

    mode: str = "adaptive"
    batch_size: int = 8
    min_batch: int = 1
    max_batch: int = 256
    max_wait_s: float = 0.001
    service_slo_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in BATCH_MODES:
            raise ValueError(
                f"unknown batch mode {self.mode!r}; expected one of {BATCH_MODES}"
            )
        if not 1 <= self.min_batch <= self.batch_size <= self.max_batch:
            raise ValueError("need 1 <= min_batch <= batch_size <= max_batch")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be nonnegative")
        if not 0.0 < self.service_slo_fraction <= 1.0:
            raise ValueError("service_slo_fraction must be in (0, 1]")


class BatchSizeController:
    """Adapts the target batch size from observed batch service times."""

    def __init__(self, policy: BatchPolicy, slo_p99_s: float) -> None:
        self.policy = policy
        self.slo_p99_s = slo_p99_s
        self.target = policy.batch_size

    def observe(
        self, batch_size: int, service_seconds: float, queue_depth_after: int
    ) -> None:
        """Update the target after one dispatched batch."""
        if self.policy.mode == "fixed":
            return
        budget = self.policy.service_slo_fraction * self.slo_p99_s
        if service_seconds > budget and batch_size <= self.target:
            # One batch alone threatens the SLO: batching stopped paying.
            self.target = max(self.policy.min_batch, (3 * self.target) // 4)
        elif queue_depth_after > self.target:
            # Backlog: raise throughput with bigger batches while the
            # per-batch service time still fits the budget.
            if service_seconds <= budget:
                self.target = min(self.policy.max_batch, 2 * self.target)
        elif queue_depth_after == 0 and service_seconds < 0.5 * budget:
            # Idle and fast: drift back toward latency-optimal batches.
            self.target = max(self.policy.min_batch, self.target - 1)


class DynamicBatcher:
    """Accumulates admitted requests and dispatches size/deadline batches.

    The batcher owns the pending queue; a single ``run`` task forms
    batches and hands them to ``dispatch`` (a coroutine the server wires
    to the router).  Dispatch runs as its own task so several replicas
    can execute batches concurrently, but in-flight batches are capped
    at ``max_inflight`` — one per device *stream* (streams × replicas),
    so with multi-stream replicas the next batch is admitted and starts
    its HtoD while earlier batches still compute (pipelined dispatch).
    Without the cap the pending queue drains instantly into tasks
    blocked on busy devices, hiding the backlog from the batch-size
    controller, the degradation ladder and the bounded-queue shed — all
    of which key off ``queue_depth``.
    """

    def __init__(
        self,
        policy: BatchPolicy,
        slo_p99_s: float,
        dispatch: Callable[[List[ServeRequest]], Awaitable[None]],
        max_inflight: int = 1,
    ) -> None:
        if max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        self.policy = policy
        self.controller = BatchSizeController(policy, slo_p99_s)
        self._dispatch = dispatch
        self.max_inflight = max_inflight
        self.pending: Deque[ServeRequest] = deque()
        self._arrival = asyncio.Event()
        self._stopping = False
        # Insertion-ordered (dict, not set) so shutdown awaits in-flight
        # dispatch tasks in spawn order — deterministic on the virtual
        # clock, where set hash order would vary run to run.
        self._inflight: Dict[asyncio.Task, None] = {}
        self._slots: asyncio.Semaphore | None = None

    # -- producer side ---------------------------------------------------

    def enqueue(self, request: ServeRequest) -> None:
        """Add an admitted request to the pending queue."""
        self.pending.append(request)
        self._arrival.set()

    @property
    def queue_depth(self) -> int:
        return len(self.pending)

    def stop(self) -> None:
        """Ask the run loop to drain the queue and exit."""
        self._stopping = True
        self._arrival.set()

    # -- batch formation -------------------------------------------------

    def _slot_semaphore(self) -> asyncio.Semaphore:
        # Created lazily so the batcher binds to the running loop.
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.max_inflight)
        return self._slots

    async def run(self) -> None:
        """Form batches until stopped and the queue is drained."""
        loop = asyncio.get_running_loop()
        while True:
            if not self.pending:
                if self._stopping:
                    break
                self._arrival.clear()
                await self._arrival.wait()
                continue
            target = self.controller.target
            if len(self.pending) < target and not self._stopping:
                oldest = self.pending[0]
                deadline = oldest.arrival_s + self.policy.max_wait_s
                timeout = deadline - loop.time()
                if timeout > 0:
                    # Wait for more arrivals, but never past the deadline.
                    self._arrival.clear()
                    try:
                        await asyncio.wait_for(self._arrival.wait(), timeout)
                    except asyncio.TimeoutError:
                        pass
                    continue
            # Block until a replica slot frees; arrivals keep queueing in
            # ``pending`` meanwhile, where the controllers can see them.
            await self._slot_semaphore().acquire()
            batch = [
                self.pending.popleft()
                for _ in range(min(target, len(self.pending)))
            ]
            task = asyncio.create_task(self._run_dispatch(batch))
            self._inflight[task] = None
            task.add_done_callback(lambda t: self._inflight.pop(t, None))
        if self._inflight:
            await gather_all(*tuple(self._inflight))

    async def _run_dispatch(self, batch: List[ServeRequest]) -> None:
        try:
            await self._dispatch(batch)
        finally:
            self._slot_semaphore().release()

    async def drain(self) -> None:
        """Wait for every in-flight dispatch task to finish."""
        while self._inflight:
            await gather_all(*tuple(self._inflight))

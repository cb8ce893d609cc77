"""Multi-stream device occupancy: CUDA-stream scheduling of copies and kernels.

:mod:`repro.simt.pipeline` models double buffering analytically with a
closed-form recurrence (one copy engine per direction, one compute
engine, chunks pipelined in order).  That form cannot express what the
serving layer needs: several *batches* in flight on one device at once,
with kernels genuinely sharing SM capacity and transfers contending for
the copy engines.  This module generalizes it into an explicit stream
model:

- **Streams** are FIFO queues of operations: two ops on the same stream
  never overlap, exactly as on hardware.  Cross-stream ordering exists
  only through explicit event dependencies (``StreamOp.deps``) — a
  kernel consuming a buffer staged by an HtoD on *another* stream must
  name that HtoD as a dependency, or the schedule has a hazard (the
  :mod:`repro.analysis.streams` checker flags exactly this).
- **Engines**: one HtoD copy engine, one DtoH copy engine, and the SM
  array — the resources every discrete NVIDIA part since Fermi exposes.
  Copy engines serve their ops *in submission order*; this keeps the
  schedule free of list-scheduling anomalies, so the makespan is
  provably monotone non-increasing in the stream count (tested as a
  property in ``tests/test_streams.py``).
- **SM-capacity sharing** (:class:`DeviceTimeline` only): concurrent
  kernels slow each other by the resident-warp ratio — while the warps
  demanded by the overlapping kernels exceed the device's resident-warp
  capacity, every active kernel's progress rate drops by
  ``capacity / demand``, per-segment, the same ``max(compute, load)``
  tile accounting style as the systolic-array simulators.  Small-batch
  search kernels demand a few warps of a many-thousand-warp device
  (the paper's Fig. 11 underutilization), so they overlap almost freely;
  saturating kernels serialize.

Two entry points share the op model:

- :class:`StreamScheduler` — *offline*: schedule a fixed op list (e.g. a
  double-buffered chunk split) from ``t = 0`` with an exclusive compute
  engine.  With one chunk per stream it reproduces
  :func:`repro.simt.pipeline.pipelined_time` bit-for-bit — the
  regression pin the ablation benchmark carries.
- :class:`DeviceTimeline` — *online*: a persistent per-replica ledger in
  event-loop time.  Batches are committed as they are dispatched; a
  newly submitted kernel is slowed by the kernels already resident
  (incumbents keep their committed finish times — contention here is
  one-sided, which keeps the model causal and the virtual-clock replay
  bit-identical across runs).

Every schedule is a deterministic function of the submitted ops: no
randomness, no wall clock, stable tie-breaking by submission order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.simt.device import DeviceSpec, get_device

__all__ = [
    "HTOD",
    "KERNEL",
    "DTOH",
    "ENGINE_KINDS",
    "ChunkWork",
    "StreamOp",
    "OpSchedule",
    "StreamTimeline",
    "StreamScheduler",
    "double_buffer_ops",
    "copy_stream_ops",
    "BatchSchedule",
    "DeviceTimeline",
]

#: Operation kinds — one per device engine.
HTOD, KERNEL, DTOH = "htod", "kernel", "dtoh"
ENGINE_KINDS = (HTOD, KERNEL, DTOH)


@dataclass(frozen=True)
class ChunkWork:
    """One chunk's priced work: transfer and kernel seconds plus warp demand.

    Field names match :class:`repro.simt.pipeline.ChunkTiming`, so either
    type schedules interchangeably; ``warps`` is the kernel's resident
    warp demand (the SM-capacity-sharing input, defaulting to one warp).
    """

    htod: float
    kernel: float
    dtoh: float
    warps: int = 1
    label: str = ""


@dataclass(frozen=True)
class StreamOp:
    """One operation on one stream.

    ``deps`` are event dependencies on earlier ops (by ``op_id``) —
    the cross-stream ordering edges.  ``reads``/``writes`` name the
    buffers the op touches; the stream-hazard checker uses them to prove
    every consumer is ordered after its producer.
    """

    op_id: int
    kind: str
    seconds: float
    stream: int
    warps: int = 1
    deps: Tuple[int, ...] = ()
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    label: str = ""


@dataclass(frozen=True)
class OpSchedule:
    """A scheduled op: when it started and finished."""

    op: StreamOp
    start: float
    finish: float


@dataclass
class StreamTimeline:
    """A complete schedule: per-op times plus derived occupancy views."""

    ops: List[OpSchedule]
    makespan: float
    engine_busy: Dict[str, float]
    stream_busy: Dict[int, float]

    @property
    def serial_seconds(self) -> float:
        """What the schedule would cost with zero overlap (sum of busy)."""
        return sum(self.engine_busy.values())

    def overlap_gain(self) -> float:
        """Serial time over makespan — the double-buffering speedup."""
        if self.makespan <= 0.0:
            return 1.0
        return self.serial_seconds / self.makespan


def double_buffer_ops(
    chunks: Sequence, num_streams: int, base_op_id: int = 0
) -> List[StreamOp]:
    """The canonical double-buffer program: chunk ``i`` on stream ``i % S``.

    Each chunk is an HtoD → kernel → DtoH chain on one stream with
    explicit event deps (the chain is hazard-free by construction:
    producers and consumers share a stream *and* carry the event edge).
    ``chunks`` is any sequence with ``htod``/``kernel``/``dtoh`` fields
    (:class:`ChunkWork` or :class:`~repro.simt.pipeline.ChunkTiming`).
    """
    if num_streams <= 0:
        raise ValueError("num_streams must be positive")
    ops: List[StreamOp] = []
    oid = base_op_id
    for i, chunk in enumerate(chunks):
        stream = i % num_streams
        staged, result = f"chunk{i}.queries", f"chunk{i}.topk"
        htod = StreamOp(
            oid, HTOD, chunk.htod, stream, writes=(staged,), label=f"htod[{i}]"
        )
        kernel = StreamOp(
            oid + 1,
            KERNEL,
            chunk.kernel,
            stream,
            warps=getattr(chunk, "warps", 1),
            deps=(htod.op_id,),
            reads=(staged,),
            writes=(result,),
            label=f"kernel[{i}]",
        )
        dtoh = StreamOp(
            oid + 2,
            DTOH,
            chunk.dtoh,
            stream,
            deps=(kernel.op_id,),
            reads=(result,),
            label=f"dtoh[{i}]",
        )
        ops.extend((htod, kernel, dtoh))
        oid += 3
    return ops


def copy_stream_ops(
    chunks: Sequence, num_streams: int, with_events: bool = True
) -> List[StreamOp]:
    """A dedicated-copy-stream program: transfers on stream 0, kernels on 1+.

    The classic CUDA structure where one stream feeds the copy engines
    and compute streams consume via events.  With ``with_events=False``
    the kernels drop their event dependency on the cross-stream HtoD —
    the textbook stream hazard the analysis checker must flag (this is
    the known-bad fixture shape).
    """
    if num_streams < 2:
        raise ValueError("copy-stream layout needs at least two streams")
    ops: List[StreamOp] = []
    oid = 0
    for i, chunk in enumerate(chunks):
        compute_stream = 1 + i % (num_streams - 1)
        staged, result = f"chunk{i}.queries", f"chunk{i}.topk"
        htod = StreamOp(
            oid, HTOD, chunk.htod, 0, writes=(staged,), label=f"htod[{i}]"
        )
        kernel = StreamOp(
            oid + 1,
            KERNEL,
            chunk.kernel,
            compute_stream,
            warps=getattr(chunk, "warps", 1),
            deps=(htod.op_id,) if with_events else (),
            reads=(staged,),
            writes=(result,),
            label=f"kernel[{i}]",
        )
        dtoh = StreamOp(
            oid + 2,
            DTOH,
            chunk.dtoh,
            0,
            deps=(kernel.op_id,),
            reads=(result,),
            label=f"dtoh[{i}]",
        )
        ops.extend((htod, kernel, dtoh))
        oid += 3
    return ops


class StreamScheduler:
    """Offline event-ordered scheduling of a stream program from ``t = 0``.

    Engines are in-order (each serves its ops in submission order) and
    the compute engine is exclusive — one kernel at a time — which is
    the conservative model the double-buffer ablation and its regression
    pins use.  Capacity-shared concurrency lives in
    :class:`DeviceTimeline`.

    Parameters
    ----------
    num_streams:
        Streams available to :meth:`schedule_chunks` (chunk ``i`` goes to
        stream ``i % num_streams``).  :meth:`schedule` takes the stream
        assignment from the ops themselves.  The schedule is in seconds
        and needs no hardware parameters.
    """

    def __init__(self, num_streams: int = 1) -> None:
        if num_streams <= 0:
            raise ValueError("num_streams must be positive")
        self.num_streams = int(num_streams)

    def schedule(self, ops: Sequence[StreamOp]) -> StreamTimeline:
        """Schedule ``ops`` (in submission order) onto streams + engines.

        Start rule for op ``o``: after its stream's previous op, after
        every event dependency, and after the previous op on its engine
        (in-order engines).  Deterministic; raises on negative durations,
        unknown kinds, or forward/unknown dependencies.
        """
        engine_free: Dict[str, float] = {kind: 0.0 for kind in ENGINE_KINDS}
        stream_free: Dict[int, float] = {}
        finish_at: Dict[int, float] = {}
        engine_busy: Dict[str, float] = {kind: 0.0 for kind in ENGINE_KINDS}
        stream_busy: Dict[int, float] = {}
        scheduled: List[OpSchedule] = []
        makespan = 0.0
        for op in ops:
            if op.kind not in ENGINE_KINDS:
                raise ValueError(f"unknown op kind {op.kind!r}")
            if op.seconds < 0:
                raise ValueError("op durations must be non-negative")
            if op.op_id in finish_at:
                raise ValueError(f"duplicate op_id {op.op_id}")
            ready = stream_free.get(op.stream, 0.0)
            for dep in op.deps:
                if dep not in finish_at:
                    raise ValueError(
                        f"op {op.op_id} depends on unknown/later op {dep}"
                    )
                ready = max(ready, finish_at[dep])
            start = max(ready, engine_free[op.kind])
            finish = start + op.seconds
            engine_free[op.kind] = finish
            stream_free[op.stream] = finish
            finish_at[op.op_id] = finish
            engine_busy[op.kind] += op.seconds
            stream_busy[op.stream] = stream_busy.get(op.stream, 0.0) + op.seconds
            makespan = max(makespan, finish)
            scheduled.append(OpSchedule(op, start, finish))
        return StreamTimeline(scheduled, makespan, engine_busy, stream_busy)

    def schedule_chunks(self, chunks: Sequence) -> StreamTimeline:
        """Schedule a double-buffered chunk split over ``num_streams``.

        With ``num_streams >= len(chunks)`` this is bit-identical to
        :func:`repro.simt.pipeline.pipelined_time`; with one stream every
        op serializes (the paper's synchronous execution).
        """
        return self.schedule(double_buffer_ops(chunks, self.num_streams))


@dataclass
class BatchSchedule:
    """One batch's committed schedule on a :class:`DeviceTimeline`."""

    submit_s: float
    finish_s: float
    htod_s: float
    kernel_s: float
    dtoh_s: float
    kernel_slowdown: float
    streams: Tuple[int, ...]
    ops: List[OpSchedule] = field(default_factory=list)

    @property
    def makespan_s(self) -> float:
        """Submit-to-finish span on the device."""
        return self.finish_s - self.submit_s

    @property
    def serial_s(self) -> float:
        """What the legacy serial accounting would have charged."""
        return self.htod_s + self.kernel_s + self.dtoh_s

    def to_dict(self) -> Dict[str, object]:
        """Deterministically rounded JSON-able view."""
        return {
            "htod_s": round(self.htod_s, 12),
            "kernel_s": round(self.kernel_s, 12),
            "dtoh_s": round(self.dtoh_s, 12),
            "makespan_s": round(self.makespan_s, 12),
            "serial_s": round(self.serial_s, 12),
            "kernel_slowdown": round(self.kernel_slowdown, 9),
            "streams": list(self.streams),
        }


class DeviceTimeline:
    """Online per-device ledger: streams, copy engines, shared SM capacity.

    The serving layer's replacement for "one lock per replica".  Batches
    are submitted at event-loop timestamps as they are dispatched; each
    submission is scheduled against the committed state (engine free
    times, resident kernels) and immediately committed, so the device's
    history is append-only and replays bit-identically on the virtual
    clock.  Contention is one-sided by design: a new kernel is slowed by
    the resident-warp load of already-committed kernels, but committed
    finish times never move — the causal approximation that keeps
    ``asyncio.sleep`` charges immutable once issued.
    """

    def __init__(self, device, num_streams: int) -> None:
        if num_streams <= 0:
            raise ValueError("num_streams must be positive")
        self.device: DeviceSpec = get_device(device)
        self.num_streams = int(num_streams)
        #: Resident-warp capacity of the whole SM array.
        self.capacity_warps = self.device.num_sms * self.device.max_warps_per_sm
        self._htod_free = 0.0
        self._dtoh_free = 0.0
        self._stream_free = [0.0] * self.num_streams
        self._resident: List[Tuple[float, float, int]] = []
        self._op_id = 0
        # Occupancy accounting.
        self.batches = 0
        self._busy: Dict[str, float] = {kind: 0.0 for kind in ENGINE_KINDS}
        self._stream_busy = [0.0] * self.num_streams
        self._first_submit: Optional[float] = None
        self._last_finish = 0.0
        self._compute_union = 0.0
        self._compute_watermark = 0.0

    # -- scheduling ------------------------------------------------------

    def _pick_stream(self) -> int:
        """Earliest-free stream, ties broken by lowest index."""
        best = 0
        for s in range(1, self.num_streams):
            if self._stream_free[s] < self._stream_free[best]:
                best = s
        return best

    def _kernel_finish(
        self, start: float, work: float, warps: int
    ) -> Tuple[float, float]:
        """Finish time of a kernel starting at ``start`` under sharing.

        Sweeps the committed residency step function: in any segment
        where resident + own demand exceeds capacity, progress slows by
        the demand ratio.  Returns ``(finish, worst_slowdown)``.
        """
        if work <= 0.0:
            return start, 1.0
        boundaries = sorted(
            {t for (s, e, _) in self._resident for t in (s, e) if t > start}
        )
        t = start
        remaining = work
        worst = 1.0
        for edge in boundaries + [None]:
            load = warps + sum(
                w for (s, e, w) in self._resident if s <= t < e
            )
            factor = max(1.0, load / self.capacity_warps)
            if edge is None:
                return t + remaining * factor, max(worst, factor)
            span = edge - t
            progress = span / factor
            if remaining <= progress:
                return t + remaining * factor, max(worst, factor)
            worst = max(worst, factor)
            remaining -= progress
            t = edge
        return t, worst  # pragma: no cover - loop always returns

    def _commit_kernel(self, start: float, finish: float, warps: int) -> None:
        self._resident.append((start, finish, warps))
        # Busy-union watermark: kernel starts are non-decreasing across
        # submissions (each waits on the in-order HtoD engine), so the
        # union of residency intervals accumulates with a single
        # watermark instead of an interval merge.
        lo = max(start, self._compute_watermark)
        if finish > lo:
            self._compute_union += finish - lo
            self._compute_watermark = finish
        else:
            self._compute_watermark = max(self._compute_watermark, finish)

    def submit_batch(
        self,
        chunks: Sequence,
        now: float,
        label: str = "batch",
    ) -> BatchSchedule:
        """Schedule one batch's chunk chains starting no earlier than ``now``.

        ``chunks`` carry ``htod``/``kernel``/``dtoh`` seconds and
        ``warps`` demand.  Returns the committed :class:`BatchSchedule`; the caller sleeps
        until ``finish_s``.
        """
        if now < 0.0:
            raise ValueError("now must be non-negative")
        if self._first_submit is None:
            self._first_submit = now
        # Kernels that ended before ``now`` can never overlap new work.
        self._resident = [(s, e, w) for (s, e, w) in self._resident if e > now]
        ops: List[OpSchedule] = []
        streams_used: List[int] = []
        htod_sum = kernel_sum = dtoh_sum = 0.0
        worst_slowdown = 1.0
        finish = now
        for i, chunk in enumerate(chunks):
            warps = int(getattr(chunk, "warps", 1))
            stream = self._pick_stream()
            streams_used.append(stream)
            staged = f"{label}.chunk{i}.queries"
            result = f"{label}.chunk{i}.topk"
            stream_ready = max(now, self._stream_free[stream])

            h_start = max(stream_ready, self._htod_free)
            h_end = h_start + chunk.htod
            self._htod_free = h_end
            h_op = StreamOp(
                self._op_id,
                HTOD,
                chunk.htod,
                stream,
                writes=(staged,),
                label=f"{label}.htod[{i}]",
            )
            self._op_id += 1
            ops.append(OpSchedule(h_op, h_start, h_end))

            k_start = h_end
            k_end, slowdown = self._kernel_finish(k_start, chunk.kernel, warps)
            self._commit_kernel(k_start, k_end, warps)
            worst_slowdown = max(worst_slowdown, slowdown)
            k_op = StreamOp(
                self._op_id,
                KERNEL,
                chunk.kernel,
                stream,
                warps=warps,
                deps=(h_op.op_id,),
                reads=(staged,),
                writes=(result,),
                label=f"{label}.kernel[{i}]",
            )
            self._op_id += 1
            ops.append(OpSchedule(k_op, k_start, k_end))

            d_start = max(k_end, self._dtoh_free)
            d_end = d_start + chunk.dtoh
            self._dtoh_free = d_end
            d_op = StreamOp(
                self._op_id,
                DTOH,
                chunk.dtoh,
                stream,
                deps=(k_op.op_id,),
                reads=(result,),
                label=f"{label}.dtoh[{i}]",
            )
            self._op_id += 1
            ops.append(OpSchedule(d_op, d_start, d_end))

            self._stream_free[stream] = d_end
            self._stream_busy[stream] += chunk.htod + (k_end - k_start) + chunk.dtoh
            htod_sum += chunk.htod
            kernel_sum += chunk.kernel
            dtoh_sum += chunk.dtoh
            finish = max(finish, d_end)
        self.batches += 1
        self._busy[HTOD] += htod_sum
        self._busy[KERNEL] += kernel_sum
        self._busy[DTOH] += dtoh_sum
        self._last_finish = max(self._last_finish, finish)
        return BatchSchedule(
            submit_s=now,
            finish_s=finish,
            htod_s=htod_sum,
            kernel_s=kernel_sum,
            dtoh_s=dtoh_sum,
            kernel_slowdown=worst_slowdown,
            streams=tuple(streams_used),
            ops=ops,
        )

    # -- observability ---------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Occupancy summary over everything committed so far."""
        window = (
            self._last_finish - self._first_submit
            if self._first_submit is not None
            else 0.0
        )
        busy_total = sum(self._busy.values())
        occupancy = [
            (b / window if window > 0.0 else 0.0) for b in self._stream_busy
        ]
        transfers = self._busy[HTOD] + self._busy[DTOH]
        hidden = (
            min(1.0, max(0.0, (busy_total - window) / transfers))
            if transfers > 0.0 and window > 0.0
            else 0.0
        )
        return {
            "streams": self.num_streams,
            "batches": self.batches,
            "window_s": round(window, 9),
            "htod_busy_s": round(self._busy[HTOD], 9),
            "kernel_busy_s": round(self._busy[KERNEL], 9),
            "kernel_engine_s": round(self._compute_union, 9),
            "dtoh_busy_s": round(self._busy[DTOH], 9),
            "stream_occupancy": [round(o, 6) for o in occupancy],
            "overlap_efficiency": round(
                busy_total / window if window > 0.0 else 0.0, 6
            ),
            "transfer_hidden_fraction": round(hidden, 6),
        }

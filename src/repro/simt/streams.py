"""Multi-stream device occupancy: CUDA-stream scheduling of copies and kernels.

Fig. 10 of the paper shows HtoD taking up to ~12% of small-batch runs and
Fig. 11 shows small batches underusing the device.  The standard CUDA
remedy is double buffering: split a batch into chunks on separate
streams so chunk ``i+1``'s host-to-device copy and chunk ``i-1``'s
device-to-host copy overlap chunk ``i``'s kernel.  The device model
here has:

- **Streams**: FIFO queues of a chunk's HtoD → kernel → DtoH chain; two
  ops on the same stream never overlap, exactly as on hardware.
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

Two schedulers, one per thing the model prices:

- :class:`StreamScheduler` — *offline*: the makespan of one batch's
  chunk split from ``t = 0`` with an exclusive compute engine (the
  out-of-core tier and :func:`pipeline_batch`, the double-buffer
  ablation).  With one chunk per stream it is the classic copy/compute
  pipeline recurrence.
- :class:`DeviceTimeline` — *online*: a persistent per-replica ledger in
  event-loop time.  Batches are committed as they are dispatched; a
  newly submitted kernel is slowed by the kernels already resident
  (incumbents keep their committed finish times — contention here is
  one-sided, which keeps the model causal and the virtual-clock replay
  bit-identical across runs).

Every schedule is a deterministic function of the submitted chunks: no
randomness, no wall clock, stable tie-breaking by submission order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simt.device import DeviceSpec, get_device

__all__ = [
    "HTOD",
    "KERNEL",
    "DTOH",
    "ENGINE_KINDS",
    "ChunkWork",
    "StreamScheduler",
    "split_counts",
    "pipeline_batch",
    "BatchSchedule",
    "DeviceTimeline",
]

#: Operation kinds — one per device engine.
HTOD, KERNEL, DTOH = "htod", "kernel", "dtoh"
ENGINE_KINDS = (HTOD, KERNEL, DTOH)


@dataclass(frozen=True)
class ChunkWork:
    """One chunk's priced work: transfer and kernel seconds plus warp demand.

    ``warps`` is the kernel's resident warp demand (the SM-capacity-sharing
    input of :class:`DeviceTimeline`, defaulting to one warp).
    """

    htod: float
    kernel: float
    dtoh: float
    warps: int = 1


def split_counts(total: int, num_chunks: int) -> List[int]:
    """Split ``total`` queries into ``num_chunks`` near-equal chunks.

    Never more chunks than queries, and one empty chunk for an empty
    batch, so every batch prices at least one launch.
    """
    if num_chunks <= 0:
        raise ValueError("num_chunks must be positive")
    num_chunks = max(1, min(num_chunks, total))
    base = total // num_chunks
    rem = total % num_chunks
    return [base + (1 if i < rem else 0) for i in range(num_chunks)]


class StreamScheduler:
    """Offline schedule of a double-buffered chunk split from ``t = 0``.

    Engines are in-order (each serves its ops in submission order) and
    the compute engine is exclusive — one kernel at a time — which is
    the conservative model the tier and the pipeline ablation use.
    Capacity-shared concurrency lives in :class:`DeviceTimeline`.

    Parameters
    ----------
    num_streams:
        Streams the chunks are spread over (chunk ``i`` goes to stream
        ``i % num_streams``).  The schedule is in seconds and needs no
        hardware parameters.
    """

    def __init__(self, num_streams: int = 1) -> None:
        if num_streams <= 0:
            raise ValueError("num_streams must be positive")
        self.num_streams = int(num_streams)

    def schedule_chunks(self, chunks: Sequence) -> float:
        """Makespan of ``chunks`` as HtoD → kernel → DtoH chains.

        Chunk ``i``'s HtoD starts after its stream's previous op and the
        previous HtoD; its kernel after its HtoD and the previous kernel;
        its DtoH after its kernel and the previous DtoH.  With
        ``num_streams >= len(chunks)`` this is the classic copy/compute
        pipeline recurrence; with one stream every op serializes (the
        paper's synchronous execution).  ``chunks`` carry
        ``htod``/``kernel``/``dtoh`` seconds; negative durations raise.
        """
        stream_free = [0.0] * self.num_streams
        htod_free = kernel_free = dtoh_free = 0.0
        for i, chunk in enumerate(chunks):
            if chunk.htod < 0 or chunk.kernel < 0 or chunk.dtoh < 0:
                raise ValueError("chunk durations must be non-negative")
            stream = i % self.num_streams
            htod_free = max(stream_free[stream], htod_free) + chunk.htod
            kernel_free = max(htod_free, kernel_free) + chunk.kernel
            dtoh_free = max(kernel_free, dtoh_free) + chunk.dtoh
            stream_free[stream] = dtoh_free
        return dtoh_free


def pipeline_batch(
    index, queries, config, num_chunks: int = 4
) -> Tuple[list, dict]:
    """Run ``index.search_batch`` chunk-wise and schedule the overlap.

    The chunks go one per stream on :class:`StreamScheduler`, so chunk
    ``i+1``'s HtoD and chunk ``i-1``'s DtoH overlap chunk ``i``'s
    kernel — the double buffering ablated in
    ``benchmarks/bench_ablation_pipeline.py``.

    Parameters
    ----------
    index:
        A :class:`~repro.core.gpu_kernel.GpuSongIndex`.
    queries:
        ``(b, d)`` query batch.
    config:
        :class:`~repro.core.config.SearchConfig`.
    num_chunks:
        Chunks to split the batch into.

    Returns
    -------
    ``(results, timing)`` where timing holds pipelined and synchronous
    makespans, the implied QPS and the per-chunk :class:`ChunkWork`.
    """
    queries = np.atleast_2d(np.asarray(queries))
    results: list = []
    chunks: List[ChunkWork] = []
    start = 0
    for count in split_counts(len(queries), num_chunks):
        out, kr = index.search_batch(queries[start : start + count], config)
        start += count
        results.extend(out)
        chunks.append(
            ChunkWork(htod=kr.htod_seconds, kernel=kr.kernel_seconds, dtoh=kr.dtoh_seconds)
        )
    piped = StreamScheduler(num_streams=len(chunks)).schedule_chunks(chunks)
    sync = sum(c.htod + c.kernel + c.dtoh for c in chunks)
    timing = {
        "pipelined_seconds": piped,
        "synchronous_seconds": sync,
        # an empty batch takes no time: no overlap to gain, no queries served
        "overlap_gain": sync / piped if piped > 0 else 1.0,
        "qps": len(queries) / piped if piped > 0 else 0.0,
        "chunks": chunks,
    }
    return results, timing


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

    def submit_batch(self, chunks: Sequence, now: float) -> BatchSchedule:
        """Schedule one batch's chunk chains starting no earlier than ``now``.

        ``chunks`` are :class:`ChunkWork` (seconds per engine plus warp
        demand).  Returns the committed :class:`BatchSchedule`; the caller
        sleeps until ``finish_s``.
        """
        if now < 0.0:
            raise ValueError("now must be non-negative")
        if self._first_submit is None:
            self._first_submit = now
        # Kernels that ended before ``now`` can never overlap new work.
        self._resident = [(s, e, w) for (s, e, w) in self._resident if e > now]
        streams_used: List[int] = []
        htod_sum = kernel_sum = dtoh_sum = 0.0
        worst_slowdown = 1.0
        finish = now
        for chunk in chunks:
            warps = int(chunk.warps)
            stream = self._pick_stream()
            streams_used.append(stream)
            stream_ready = max(now, self._stream_free[stream])

            h_start = max(stream_ready, self._htod_free)
            h_end = h_start + chunk.htod
            self._htod_free = h_end

            k_start = h_end
            k_end, slowdown = self._kernel_finish(k_start, chunk.kernel, warps)
            self._commit_kernel(k_start, k_end, warps)
            worst_slowdown = max(worst_slowdown, slowdown)

            d_start = max(k_end, self._dtoh_free)
            d_end = d_start + chunk.dtoh
            self._dtoh_free = d_end

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

"""Stream-hazard analysis: event ordering across CUDA-style streams.

The multi-stream device model (:mod:`repro.simt.streams`) only
guarantees ordering *within* a stream; cross-stream ordering exists only
through explicit event dependencies (``StreamOp.deps``).  The classic
bug this invites — on real CUDA exactly as in the model — is a kernel
consuming a buffer whose HtoD copy ran on a *different* stream with no
event recorded between them: the schedule may still come out right by
luck (engine serialization often hides it), which is precisely why it
needs a static check rather than a runtime one.

:func:`check_stream_ops` verifies a stream program by computing the
happens-before relation (program order within each stream, plus the
transitive closure of event deps) and flagging:

* ``stream-hazard`` (**error**) — an op reads a buffer whose most recent
  writer is not in the reader's happens-before set;
* ``dangling-dep`` (**error**) — a dependency on an unknown or
  not-yet-submitted op (events must be recorded before they are waited
  on);
* ``unordered-write`` (**warning**) — two writes to the same buffer with
  no ordering between them (last-writer-wins races).

Reads of buffers no op writes are treated as host/device-resident
inputs (e.g. the graph already on the device) and are not flagged.

:func:`check_stream_programs` runs the check over a registry of
representative programs from the serving stack — including, under
``include_known_bad=True``, a deliberately broken copy-stream program
that must fail (the CI negative control, matching the sanitizer and
verifier fixtures).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Severity
from repro.simt.streams import (
    ChunkWork,
    DeviceTimeline,
    StreamOp,
    copy_stream_ops,
    double_buffer_ops,
)

__all__ = [
    "STREAM_RULES",
    "check_stream_ops",
    "check_stream_programs",
    "iter_stream_programs",
]

#: Rules this pass can fire.
STREAM_RULES = ("stream-hazard", "dangling-dep", "unordered-write")


def check_stream_ops(
    ops: Sequence[StreamOp], location: str = "stream-program"
) -> List[Finding]:
    """Check one stream program for cross-stream ordering hazards."""
    findings: List[Finding] = []
    happens_before: Dict[int, Set[int]] = {}
    last_on_stream: Dict[int, int] = {}
    writers: Dict[str, List[int]] = {}
    submitted: Set[int] = set()
    for op in ops:
        preds: Set[int] = set()
        prev = last_on_stream.get(op.stream)
        if prev is not None:
            preds.add(prev)
        for dep in op.deps:
            if dep not in submitted:
                findings.append(
                    Finding(
                        rule="dangling-dep",
                        severity=Severity.ERROR,
                        location=f"{location} op={op.op_id} {op.label or op.kind}",
                        message=(
                            f"dependency on op {dep} which is not submitted "
                            "yet — events must be recorded before they are "
                            "waited on"
                        ),
                    )
                )
                continue
            preds.add(dep)
        hb: Set[int] = set()
        for p in preds:
            hb.add(p)
            hb.update(happens_before[p])
        for buf in op.reads:
            history = writers.get(buf)
            if not history:
                continue  # host/device-resident input, not produced here
            latest = history[-1]
            if latest not in hb:
                writer_op = next(o for o in ops if o.op_id == latest)
                findings.append(
                    Finding(
                        rule="stream-hazard",
                        severity=Severity.ERROR,
                        location=f"{location} op={op.op_id} {op.label or op.kind}",
                        message=(
                            f"reads {buf!r} written by op {latest} "
                            f"({writer_op.label or writer_op.kind}) on stream "
                            f"{writer_op.stream} with no event dependency — "
                            f"consumer on stream {op.stream} may run before "
                            "the copy completes"
                        ),
                    )
                )
        for buf in op.writes:
            history = writers.setdefault(buf, [])
            if history and history[-1] not in hb:
                findings.append(
                    Finding(
                        rule="unordered-write",
                        severity=Severity.WARNING,
                        location=f"{location} op={op.op_id} {op.label or op.kind}",
                        message=(
                            f"writes {buf!r} concurrently with op "
                            f"{history[-1]} (no ordering between the writers)"
                        ),
                    )
                )
            history.append(op.op_id)
        happens_before[op.op_id] = hb
        last_on_stream[op.stream] = op.op_id
        submitted.add(op.op_id)
    return findings


def _serve_timeline_ops() -> List[StreamOp]:
    """Ops the serving replica actually emits: a short deterministic
    DeviceTimeline history of overlapping batches."""
    timeline = DeviceTimeline("v100", num_streams=4)
    chunks = [ChunkWork(htod=1e-5, kernel=2e-4, dtoh=1e-5, warps=8)]
    ops: List[StreamOp] = []
    for i in range(3):
        sched = timeline.submit_batch(chunks, now=i * 5e-5, label=f"b{i}")
        ops.extend(s.op for s in sched.ops)
    return ops


_GOOD_CHUNKS = [
    ChunkWork(htod=0.1, kernel=0.5, dtoh=0.05, warps=4),
    ChunkWork(htod=0.1, kernel=0.4, dtoh=0.05, warps=4),
    ChunkWork(htod=0.2, kernel=0.6, dtoh=0.05, warps=8),
    ChunkWork(htod=0.1, kernel=0.3, dtoh=0.05, warps=2),
]


def iter_stream_programs(
    include_known_bad: bool = False,
) -> Iterator[Tuple[str, List[StreamOp]]]:
    """Representative stream programs the serving stack schedules.

    The known-bad entry is the copy-stream layout with its event
    dependencies dropped — every kernel consumes an HtoD from another
    stream unordered, the textbook hazard.
    """
    yield "double-buffer-4x2", double_buffer_ops(_GOOD_CHUNKS, num_streams=2)
    yield "double-buffer-4x4", double_buffer_ops(_GOOD_CHUNKS, num_streams=4)
    yield (
        "copy-stream-with-events",
        copy_stream_ops(_GOOD_CHUNKS, num_streams=3, with_events=True),
    )
    yield "device-timeline-serve", _serve_timeline_ops()
    if include_known_bad:
        yield (
            "known-bad:copy-stream-missing-events",
            copy_stream_ops(_GOOD_CHUNKS, num_streams=3, with_events=False),
        )


def check_stream_programs(
    include_known_bad: bool = False,
    programs: Iterable[Tuple[str, Sequence[StreamOp]]] = None,
) -> List[Finding]:
    """Run the hazard check over the stream-program registry."""
    if programs is None:
        programs = iter_stream_programs(include_known_bad)
    findings: List[Finding] = []
    for name, ops in programs:
        findings.extend(check_stream_ops(ops, location=f"stream:{name}"))
    return findings

"""SIMT kernel sanitizer: race / OOB / uninitialized / divergence checks.

A cuda-memcheck + racecheck analogue for the simulated substrate.  The
checks replay a :class:`~repro.analysis.trace.TraceRecorder` event
stream produced by a lane-accurate
:class:`~repro.simt.simulator.WarpSimulator` run and flag hazards the
functional interpreter executes silently:

``shared-race``
    Two different active lanes store one shared address in the same
    instruction (the hardware keeps an arbitrary winner), or a cross-lane
    write → read/write pair on one shared address with no reconvergence
    point ordering the lanes in between.  Reconvergence (``EndIf``, loop
    exit) orders exactly the lanes in the post-pop mask, mirroring
    independent-thread-scheduling semantics: a write is safe to observe
    only from lanes the hazard model knows reconverged with the writer.
``shared-oob`` / ``global-oob``
    An access outside the declared :class:`SharedMemoryBudget` word span
    (or the global allocation).  Negative word addresses are the nasty
    case — numpy wraps them silently, real hardware corrupts memory.
``uninit-read``
    An instruction reads a register that some active lane never wrote.
    ``ShflDown`` is checked against the cross-lane set it actually reads
    (lanes ``delta..31``) since it ignores the active mask.
``divergent-shuffle``
    A ``ShflDown`` issued under a partial mask — the ``__shfl_sync``
    hazard: inactive lanes contribute undefined values on hardware.
``empty-mask-issue``
    A non-control instruction issued with no active lanes (a stale-mask
    interpreter regression; structured control flow should skip it).
``stale-loop-predicate``
    Static check: a ``While`` whose predicate register no instruction in
    the loop body writes — the loop can never make progress.
``simulator-fault``
    The launch raised inside the simulator (an index past the buffer);
    reported by :func:`repro.analysis.registry.sanitize_kernel`, which
    still sanitizes the events traced before the fault.
``uncoalesced-global`` (warning)
    A wide global access whose transaction count approaches one per
    lane; kernels that measure scattering on purpose waive it.
``bank-conflict`` (warning)
    A shared access serializing over more than two conflicting lanes per
    bank.
``model-drift``
    The lane-accurate trace disagrees with the analytic
    :class:`~repro.simt.warp.Warp` / :class:`~repro.simt.cost.CostModel`
    assumptions: transaction counts, bank-conflict-free layout, and the
    ``log2(32)``-step shuffle reduction are cross-checked against a
    declared :class:`DriftExpectation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.findings import Finding, Severity
from repro.analysis.trace import (
    InstrEvent,
    MemEvent,
    RegInitEvent,
    RegWriteEvent,
    ReconvergeEvent,
    TraceRecorder,
    instruction_reads,
    shfl_read_lanes,
)
from repro.simt import isa
from repro.simt.simulator import WARP_SIZE, WarpStats

#: Control-flow opcodes (manage masks; exempt from empty-mask check).
_CONTROL_OPS = (isa.If, isa.Else, isa.EndIf, isa.While, isa.EndWhile)

#: Bank-conflict serialization beyond this is reported (warning).
BANK_CONFLICT_LIMIT = 2

#: Minimum active lanes before coalescing quality is judged.
_COALESCE_MIN_LANES = 8


@dataclass(frozen=True)
class DriftExpectation:
    """Analytic-model expectations for one kernel run.

    Populated from the same formulas the analytic meters use
    (:meth:`repro.simt.memory.MemorySpace.read_coalesced` for transaction
    counts, ``log2(warp_size)`` steps per :meth:`repro.simt.warp.Warp.warp_reduce`),
    so a mismatch means the lane-accurate trace and the analytic cost
    model have drifted apart.
    """

    #: Expected 128-byte global transactions (``None`` = don't check).
    global_transactions: Optional[int] = None
    #: Absolute slack allowed on the transaction count.
    transaction_tolerance: int = 0
    #: Ceiling on shared bank-conflict serialization cycles.
    max_shared_conflict_cycles: int = 0
    #: Expected ``ShflDown`` issues (``None`` = don't check).
    shfl_count: Optional[int] = None


class _SharedWriteRecord:
    """Last write to one shared address, plus the lanes ordered after it."""

    __slots__ = ("seq", "pc", "lanes", "ordered")

    def __init__(self, seq: int, pc: int, lanes: np.ndarray) -> None:
        self.seq = seq
        self.pc = pc
        self.lanes = lanes  # (k,) lane ids that wrote
        self.ordered = np.zeros(WARP_SIZE, dtype=bool)
        self.ordered[lanes] = True


def _loc(name: str, pc: int, ins=None) -> str:
    op = f" {type(ins).__name__}" if ins is not None else ""
    return f"kernel:{name} pc={pc}{op}"


def sanitize_program(program: Sequence[isa.Instruction], name: str = "kernel") -> List[Finding]:
    """Static divergence-hygiene checks (no execution needed)."""
    findings: List[Finding] = []
    stack: List[dict] = []
    for pc, ins in enumerate(program):
        if isinstance(ins, isa.While):
            stack.append({"pc": pc, "pred": ins.pred, "written": False})
        elif isinstance(ins, isa.EndWhile):
            frame = stack.pop()
            if not frame["written"]:
                findings.append(
                    Finding(
                        rule="stale-loop-predicate",
                        severity=Severity.ERROR,
                        location=_loc(name, frame["pc"], program[frame["pc"]]),
                        message=(
                            f"While predicate {frame['pred']!r} is never written "
                            "inside the loop body: the loop cannot reconverge"
                        ),
                    )
                )
        else:
            dst = getattr(ins, "dst", None)
            for frame in stack:
                if dst is not None and dst == frame["pred"]:
                    frame["written"] = True
    return findings


def sanitize_trace(
    trace: TraceRecorder,
    shared_words: Optional[int] = None,
    global_words: Optional[int] = None,
    name: str = "kernel",
) -> List[Finding]:
    """Replay a recorded event stream and report dynamic hazards."""
    findings: List[Finding] = []
    initialized: Dict[str, np.ndarray] = {}
    last_write: Dict[int, _SharedWriteRecord] = {}

    def _check_reads(event: InstrEvent) -> None:
        ins = event.ins
        if isinstance(ins, isa.ShflDown):
            need = shfl_read_lanes(ins.delta)
            state = initialized.get(ins.src)
            bad = need if state is None else (need & ~state)
            if bad.any():
                findings.append(
                    Finding(
                        rule="uninit-read",
                        severity=Severity.ERROR,
                        location=_loc(name, event.pc, ins),
                        message=(
                            f"ShflDown reads register {ins.src!r} from lanes "
                            f"{np.flatnonzero(bad).tolist()} that never wrote it"
                        ),
                    )
                )
            return
        for reg in instruction_reads(ins):
            state = initialized.get(reg)
            bad = event.mask if state is None else (event.mask & ~state)
            if bad.any():
                findings.append(
                    Finding(
                        rule="uninit-read",
                        severity=Severity.ERROR,
                        location=_loc(name, event.pc, ins),
                        message=(
                            f"register {reg!r} read while uninitialized on active "
                            f"lanes {np.flatnonzero(bad).tolist()}"
                        ),
                    )
                )

    def _check_shared(event: MemEvent) -> None:
        if shared_words is not None:
            oob = (event.addrs < 0) | (event.addrs >= shared_words)
            if oob.any():
                findings.append(
                    Finding(
                        rule="shared-oob",
                        severity=Severity.ERROR,
                        location=_loc(name, event.pc, event.ins),
                        message=(
                            f"shared {event.kind} at word(s) "
                            f"{sorted(set(event.addrs[oob].tolist()))} outside the "
                            f"declared budget of {shared_words} words "
                            f"(lanes {event.lanes[oob].tolist()})"
                        ),
                    )
                )
        if event.cost > BANK_CONFLICT_LIMIT:
            findings.append(
                Finding(
                    rule="bank-conflict",
                    severity=Severity.WARNING,
                    location=_loc(name, event.pc, event.ins),
                    message=(
                        f"shared {event.kind} serializes over {event.cost} "
                        f"conflicting addresses in one bank"
                    ),
                )
            )
        # -- race detection -------------------------------------------------
        for addr in np.unique(event.addrs):
            lanes_here = event.lanes[event.addrs == addr]
            if event.kind == "write" and len(lanes_here) > 1:
                findings.append(
                    Finding(
                        rule="shared-race",
                        severity=Severity.ERROR,
                        location=_loc(name, event.pc, event.ins),
                        message=(
                            f"lanes {lanes_here.tolist()} store shared word "
                            f"{int(addr)} in the same instruction (arbitrary winner)"
                        ),
                    )
                )
            record = last_write.get(int(addr))
            if record is not None and not record.ordered[lanes_here].all():
                racing = lanes_here[~record.ordered[lanes_here]]
                findings.append(
                    Finding(
                        rule="shared-race",
                        severity=Severity.ERROR,
                        location=_loc(name, event.pc, event.ins),
                        message=(
                            f"shared word {int(addr)} {event.kind} by lanes "
                            f"{racing.tolist()} races with the write from lanes "
                            f"{record.lanes.tolist()} at pc={record.pc} "
                            "(no reconvergence point orders them)"
                        ),
                    )
                )
            if event.kind == "write":
                last_write[int(addr)] = _SharedWriteRecord(
                    event.seq, event.pc, lanes_here
                )

    def _check_global(event: MemEvent) -> None:
        if global_words is not None:
            oob = (event.addrs < 0) | (event.addrs >= global_words)
            if oob.any():
                findings.append(
                    Finding(
                        rule="global-oob",
                        severity=Severity.ERROR,
                        location=_loc(name, event.pc, event.ins),
                        message=(
                            f"global {event.kind} at word(s) "
                            f"{sorted(set(event.addrs[oob].tolist()))} outside the "
                            f"{global_words}-word allocation "
                            f"(lanes {event.lanes[oob].tolist()})"
                        ),
                    )
                )
        active = len(event.lanes)
        if (
            active >= _COALESCE_MIN_LANES
            and event.cost > 1
            and event.cost * 2 >= active
        ):
            findings.append(
                Finding(
                    rule="uncoalesced-global",
                    severity=Severity.WARNING,
                    location=_loc(name, event.pc, event.ins),
                    message=(
                        f"global {event.kind} by {active} lanes generated "
                        f"{event.cost} transactions (scattered access pattern)"
                    ),
                )
            )

    for event in trace.events:
        if isinstance(event, RegInitEvent):
            initialized[event.name] = np.ones(WARP_SIZE, dtype=bool)
        elif isinstance(event, RegWriteEvent):
            state = initialized.setdefault(event.name, np.zeros(WARP_SIZE, dtype=bool))
            state |= event.mask
        elif isinstance(event, InstrEvent):
            if event.ins is not None and not isinstance(event.ins, _CONTROL_OPS):
                if not event.mask.any():
                    findings.append(
                        Finding(
                            rule="empty-mask-issue",
                            severity=Severity.ERROR,
                            location=_loc(name, event.pc, event.ins),
                            message="instruction issued with an empty active mask",
                        )
                    )
                if isinstance(event.ins, isa.ShflDown) and not event.mask.all():
                    findings.append(
                        Finding(
                            rule="divergent-shuffle",
                            severity=Severity.ERROR,
                            location=_loc(name, event.pc, event.ins),
                            message=(
                                "ShflDown under a partial mask: inactive lanes "
                                f"({np.flatnonzero(~event.mask).tolist()}) "
                                "contribute undefined values on hardware"
                            ),
                        )
                    )
            _check_reads(event)
        elif isinstance(event, MemEvent):
            if event.space == "shared":
                _check_shared(event)
            else:
                _check_global(event)
        elif isinstance(event, ReconvergeEvent):
            mask = event.mask
            for record in last_write.values():
                if (record.ordered & mask).any():
                    record.ordered |= mask
    return findings


def check_drift(
    stats: WarpStats,
    trace: TraceRecorder,
    expectation: DriftExpectation,
    name: str = "kernel",
) -> List[Finding]:
    """Cross-check trace counters against the analytic model's assumptions."""
    findings: List[Finding] = []
    if expectation.global_transactions is not None:
        gap = abs(stats.global_transactions - expectation.global_transactions)
        if gap > expectation.transaction_tolerance:
            findings.append(
                Finding(
                    rule="model-drift",
                    severity=Severity.ERROR,
                    location=f"kernel:{name}",
                    message=(
                        f"lane-accurate trace issued {stats.global_transactions} "
                        f"global transactions; the analytic model prices "
                        f"{expectation.global_transactions} "
                        f"(tolerance ±{expectation.transaction_tolerance})"
                    ),
                )
            )
    if stats.shared_conflict_cycles > expectation.max_shared_conflict_cycles:
        findings.append(
            Finding(
                rule="model-drift",
                severity=Severity.ERROR,
                location=f"kernel:{name}",
                message=(
                    f"trace shows {stats.shared_conflict_cycles} bank-conflict "
                    f"cycles; the analytic model assumes at most "
                    f"{expectation.max_shared_conflict_cycles}"
                ),
            )
        )
    if expectation.shfl_count is not None:
        issued = trace.count_ops(isa.ShflDown)
        if issued != expectation.shfl_count:
            findings.append(
                Finding(
                    rule="model-drift",
                    severity=Severity.ERROR,
                    location=f"kernel:{name}",
                    message=(
                        f"trace issued {issued} ShflDown steps; the analytic "
                        f"warp_reduce pricing assumes {expectation.shfl_count} "
                        f"(log2(warp) per reduction)"
                    ),
                )
            )
    return findings

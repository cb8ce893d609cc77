"""Sanitizer registry: every microkernel in :mod:`repro.simt.kernels`.

Each :class:`KernelSpec` packages a microkernel the way its runner
launches it — program, memory image, input registers — together with the
*declared* shared-memory budget in words (what a
:class:`~repro.simt.memory.SharedMemoryBudget` would reserve, which may
be smaller than the runner's defensive over-allocation) and the analytic
model's :class:`~repro.analysis.sanitizer.DriftExpectation` for the run.

Expected transaction counts are produced by the same
:class:`~repro.simt.memory.MemorySpace` formulas the analytic meters
use, so the registry is a live cross-check: if either the lane-accurate
interpreter or the analytic accounting changes shape, the drift rule
fires here before the cost model silently diverges.

``python -m repro.analysis`` sanitizes every registered spec;
:func:`iter_kernel_specs` is the test suite's parametrization source.
:func:`iter_known_bad_specs` is the negative control: deliberately
broken kernels that ``--include-known-bad`` launches and the gate must
reject.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterator, List

import numpy as np

from repro.analysis.findings import Finding, Severity
from repro.analysis.sanitizer import (
    DriftExpectation,
    check_drift,
    sanitize_program,
    sanitize_trace,
)
from repro.analysis.trace import TraceRecorder
from repro.simt import isa, kernels
from repro.simt.memory import MemorySpace
from repro.simt.simulator import WARP_SIZE, WarpSimulator


@dataclass(frozen=True)
class KernelSpec:
    """One sanitizer target.

    ``make(tracer)`` builds a fully-configured simulator (program, memory
    image, input registers) with the tracer attached, mirroring how the
    kernel's runner launches it.  ``shared_words`` is the declared
    shared-memory budget the OOB check enforces; ``waive`` lists rules
    whose findings are expected for this kernel (e.g. a deliberate
    scattered-read measurement waives ``uncoalesced-global``).
    """

    name: str
    make: Callable[[TraceRecorder], WarpSimulator]
    shared_words: int
    drift: DriftExpectation = field(default_factory=DriftExpectation)
    waive: FrozenSet[str] = frozenset()


def sanitize_kernel(spec: KernelSpec) -> List[Finding]:
    """Run one spec under tracing and return its (non-waived) findings.

    A program the static pass rejects (a loop that cannot terminate) is
    not launched.  A launch that faults inside the simulator — an index
    past the allocation — becomes a ``simulator-fault`` finding, and the
    events traced up to the fault are still sanitized, so the access
    that caused it is reported as ``shared-oob`` / ``global-oob``.
    """
    recorder = TraceRecorder()
    sim = spec.make(recorder)
    findings = sanitize_program(sim.program, name=spec.name)
    if not findings:
        stats = None
        try:
            stats = sim.run()
        except Exception as exc:  # the kernel's fault, reported as a finding
            findings.append(Finding(
                rule="simulator-fault",
                severity=Severity.ERROR,
                location=f"kernel:{spec.name} pc={sim.pc}",
                message=f"launch raised {type(exc).__name__}: {exc}",
            ))
        findings += sanitize_trace(
            recorder,
            shared_words=spec.shared_words,
            global_words=len(sim.global_mem),
            name=spec.name,
        )
        if stats is not None:
            findings += check_drift(stats, recorder, spec.drift, name=spec.name)
    return [f for f in findings if f.rule not in spec.waive]


# --------------------------------------------------------------------------
# spec builders
# --------------------------------------------------------------------------

#: shfl_down steps one warp_reduce issues (log2 of the warp width).
REDUCE_STEPS = int(math.log2(WARP_SIZE))


def _distance_spec(name: str, metric: str, dim: int) -> KernelSpec:
    if metric == "l2":
        program = kernels.squared_l2_kernel(dim)
    elif metric == "ip":
        program = kernels.dot_product_kernel(dim)
    elif metric == "cosine":
        program = kernels.cosine_kernel(dim)
    else:
        raise ValueError(f"unknown metric {metric!r}")

    def make(tracer: TraceRecorder) -> WarpSimulator:
        rng = np.random.default_rng(7)
        shared = np.zeros(max(dim, WARP_SIZE))
        shared[:dim] = rng.standard_normal(dim)
        global_mem = np.zeros(max(dim, WARP_SIZE))
        global_mem[:dim] = rng.standard_normal(dim)
        sim = WarpSimulator(program, global_mem=global_mem, shared_mem=shared, tracer=tracer)
        sim.set_register("query_base", 0.0)
        sim.set_register("vec_base", 0.0)
        return sim

    reductions = 3 if metric == "cosine" else 1
    return KernelSpec(
        name=name,
        make=make,
        shared_words=max(dim, WARP_SIZE),
        drift=DriftExpectation(
            global_transactions=MemorySpace().read_coalesced(4 * dim),
            shfl_count=reductions * REDUCE_STEPS,
        ),
    )


def _hamming_spec(num_words: int) -> KernelSpec:
    program = kernels.hamming_kernel(num_words)

    def make(tracer: TraceRecorder) -> WarpSimulator:
        rng = np.random.default_rng(11)
        shared = np.zeros(max(num_words, WARP_SIZE))
        shared[:num_words] = rng.integers(0, 2**32, num_words).astype(np.float64)
        global_mem = np.zeros(max(num_words, WARP_SIZE))
        global_mem[:num_words] = rng.integers(0, 2**32, num_words).astype(np.float64)
        sim = WarpSimulator(program, global_mem=global_mem, shared_mem=shared, tracer=tracer)
        sim.set_register("query_base", 0.0)
        sim.set_register("vec_base", 0.0)
        return sim

    return KernelSpec(
        name=f"hamming_{num_words}w",
        make=make,
        shared_words=max(num_words, WARP_SIZE),
        drift=DriftExpectation(
            global_transactions=MemorySpace().read_coalesced(4 * num_words),
            shfl_count=REDUCE_STEPS,
        ),
    )


def _warp_reduce_spec() -> KernelSpec:
    program = kernels.warp_reduce_kernel("acc")

    def make(tracer: TraceRecorder) -> WarpSimulator:
        sim = WarpSimulator(program, global_mem=np.zeros(8), tracer=tracer)
        sim.set_register("acc", np.arange(WARP_SIZE, dtype=np.float64))
        return sim

    return KernelSpec(
        name="warp_reduce",
        make=make,
        shared_words=0,
        drift=DriftExpectation(global_transactions=0, shfl_count=REDUCE_STEPS),
    )


def _heap_push_spec(name: str, size: int, capacity: int) -> KernelSpec:
    program = kernels.heap_push_kernel()

    def make(tracer: TraceRecorder) -> WarpSimulator:
        shared = np.zeros(2 * capacity + WARP_SIZE)
        shared[:size] = np.sort(np.linspace(0.5, 3.0, size)) if size else []
        shared[capacity : capacity + size] = np.arange(size, dtype=np.float64)
        sim = WarpSimulator(program, global_mem=np.zeros(8), shared_mem=shared, tracer=tracer)
        sim.set_register("heap_base", 0.0)
        sim.set_register("heap_capacity", float(capacity))
        sim.set_register("heap_size", float(size))
        sim.set_register("new_dist", 0.25)
        sim.set_register("new_id", 99.0)
        return sim

    return KernelSpec(
        name=name,
        make=make,
        # Declared budget: the two parallel arrays, dists then ids.
        shared_words=2 * capacity,
        drift=DriftExpectation(global_transactions=0, shfl_count=0),
    )


def _single_lane_scan_spec(count: int) -> KernelSpec:
    program = kernels.single_lane_scan_kernel(count)

    def make(tracer: TraceRecorder) -> WarpSimulator:
        shared = np.zeros(max(count, WARP_SIZE))
        shared[:count] = np.arange(count, dtype=np.float64)
        return WarpSimulator(program, global_mem=np.zeros(8), shared_mem=shared, tracer=tracer)

    return KernelSpec(
        name=f"single_lane_scan_{count}",
        make=make,
        shared_words=max(count, WARP_SIZE),
        drift=DriftExpectation(global_transactions=0, shfl_count=0),
    )


def _warp_probe_spec(name: str, home: int) -> KernelSpec:
    program = kernels.warp_parallel_probe_kernel()

    def make(tracer: TraceRecorder) -> WarpSimulator:
        table = np.full(WARP_SIZE, -1.0)
        table[5] = 42.0
        sim = WarpSimulator(program, global_mem=np.zeros(8), shared_mem=table, tracer=tracer)
        sim.set_register("table_base", 0.0)
        sim.set_register("table_mask", float(WARP_SIZE - 1))
        sim.set_register("home", float(home))
        sim.set_register("key", 42.0)
        return sim

    return KernelSpec(
        name=name,
        make=make,
        shared_words=WARP_SIZE,
        drift=DriftExpectation(global_transactions=0, shfl_count=0),
    )


def _strided_read_spec(stride: int) -> KernelSpec:
    program = kernels.strided_read_kernel(stride)
    span = (WARP_SIZE - 1) * stride + 1

    def make(tracer: TraceRecorder) -> WarpSimulator:
        global_mem = np.arange(max(span, WARP_SIZE), dtype=np.float64)
        return WarpSimulator(program, global_mem=global_mem, tracer=tracer)

    meter = MemorySpace()
    if stride == 1:
        expected = meter.read_coalesced(4 * WARP_SIZE)
        waive: FrozenSet[str] = frozenset()
    else:
        # Scattered by construction: the kernel exists to measure this,
        # so the coalescing warning is waived, but the transaction count
        # must still match the analytic scattered-read accounting.
        expected = meter.read_scattered(WARP_SIZE)
        waive = frozenset({"uncoalesced-global"})

    return KernelSpec(
        name=f"strided_read_{stride}",
        make=make,
        shared_words=0,
        drift=DriftExpectation(global_transactions=expected, shfl_count=0),
        waive=waive,
    )


def iter_kernel_specs() -> Iterator[KernelSpec]:
    """Every registered microkernel launch, in a stable order."""
    yield _distance_spec("squared_l2_64", "l2", 64)
    yield _distance_spec("squared_l2_48_ragged", "l2", 48)
    yield _distance_spec("dot_product_64", "ip", 64)
    yield _distance_spec("cosine_64", "cosine", 64)
    yield _hamming_spec(8)
    yield _warp_reduce_spec()
    # Heap occupancy and probe home slot are launched at the edges of
    # their legal ranges, [0, capacity] and [0, 31], plus one inside.
    yield _heap_push_spec("heap_push", size=5, capacity=16)
    yield _heap_push_spec("heap_push_empty", size=0, capacity=16)
    yield _heap_push_spec("heap_push_one_free", size=15, capacity=16)
    yield _heap_push_spec("heap_push_full", size=16, capacity=16)
    yield _single_lane_scan_spec(24)
    yield _warp_probe_spec("warp_parallel_probe", home=3)
    yield _warp_probe_spec("warp_parallel_probe_home0", home=0)
    yield _warp_probe_spec("warp_parallel_probe_home31", home=WARP_SIZE - 1)
    yield _strided_read_spec(1)
    yield _strided_read_spec(32)


# --------------------------------------------------------------------------
# known-bad launches (the negative control)
# --------------------------------------------------------------------------


def _known_bad_spec(
    name: str, program: List[isa.Instruction], shared_words: int, **regs: float
) -> KernelSpec:
    def make(tracer: TraceRecorder) -> WarpSimulator:
        shared = np.zeros(max(shared_words, 1))
        sim = WarpSimulator(
            program, global_mem=np.zeros(8), shared_mem=shared, tracer=tracer
        )
        for reg, value in regs.items():
            sim.set_register(reg, value)
        return sim

    return KernelSpec(name=name, make=make, shared_words=shared_words)


def iter_known_bad_specs() -> Iterator[KernelSpec]:
    """Broken kernels the sanitizer must reject, each launched concretely.

    * ``bad_heap_push_unguarded`` — :func:`~repro.simt.kernels.heap_push_kernel`
      with the ``has_room`` guard dropped, pushed into a full heap whose
      buffer is exactly the two-array budget: the id store lands one word
      past it (``shared-oob``, then a simulator fault).
    * ``bad_oob_unbounded_index`` — every lane walks its index from its
      lane id to 100, storing ``shared[i]`` into a 32-word buffer.
    * ``bad_divergent_shuffle`` — a ``ShflDown`` under a lane-varying
      branch.
    """
    cap = 16
    heap = kernels.heap_push_kernel()
    guard = next(
        pc for pc, ins in enumerate(heap)
        if isinstance(ins, isa.If) and ins.pred == "do_push"
    )
    heap[guard] = isa.If(pred="is0")
    yield _known_bad_spec(
        "bad_heap_push_unguarded", heap, 2 * cap,
        heap_base=0.0, heap_capacity=float(cap), heap_size=float(cap),
        new_dist=0.25, new_id=99.0,
    )
    yield _known_bad_spec("bad_oob_unbounded_index", [
        isa.LaneId(dst="i"),
        isa.Cmp(rel="lt", dst="more", a="i", b=100.0),
        isa.While(pred="more"),
        isa.Sts(addr="i", src="i"),
        isa.Binary(op="add", dst="i", a="i", b=1.0),
        isa.Cmp(rel="lt", dst="more", a="i", b=100.0),
        isa.EndWhile(),
    ], WARP_SIZE)
    yield _known_bad_spec("bad_divergent_shuffle", [
        isa.LaneId(dst="lane"),
        isa.Mov(dst="acc", src=1.0),
        isa.Cmp(rel="lt", dst="low_half", a="lane", b=16.0),
        isa.If(pred="low_half"),
        isa.ShflDown(dst="other", src="acc", delta=8),
        isa.Binary(op="add", dst="acc", a="acc", b="other"),
        isa.EndIf(),
    ], 0)

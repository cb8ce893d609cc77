"""Static/dynamic analysis for the repo's SIMT substrate and hot paths.

Two engines, both runnable as ``python -m repro.analysis`` and gated in
``scripts/ci.sh``:

* the **kernel sanitizer** (:mod:`repro.analysis.sanitizer`) replays
  lane-accurate :class:`TraceRecorder` streams from the
  :class:`~repro.simt.simulator.WarpSimulator` and flags SIMT hazards —
  shared-memory races, OOB accesses, uninitialized-register reads,
  divergence violations and analytic-model drift — over every microkernel
  in the :mod:`repro.analysis.registry`;
* the **hot-path linter** (:mod:`repro.analysis.lint`) enforces the
  vectorization invariants in modules marked ``# lint: hot-path``;
* the **static verifier** (:mod:`repro.analysis.verifier`, opt-in via
  ``--verify``) abstractly interprets every registered kernel — proving
  memory bounds, termination, divergence safety and static cost bounds
  for *all* inputs — and checks SONG's Theorem 1–3 data-structure
  invariants against the real search loop;
* the **array-program verifier** (:mod:`repro.analysis.arrays`, opt-in
  via ``--arrays``) abstractly interprets the vectorized *host* kernels
  decorated ``@array_kernel`` over a symbolic-shape / dtype / interval
  domain — proving packed-key dtype bounds (with smallest concrete
  counterexamples when they fail), broadcast compatibility, fancy-index
  bounds, scatter aliasing safety, and determinism of tie-breaking —
  plus a syntactic nondeterminism sweep over hot modules and ``serve/``;
* the **async-concurrency analyzer** (:mod:`repro.analysis.aio`, opt-in
  via ``--aio``) statically checks the coroutine code of the serving
  layer — atomicity of read-modify-writes across await points (with an
  inferred field→lock protection map and ``# aio: guarded-by``
  annotations), lock-order-inversion cycles, virtual-time determinism
  (wall-clock reads, seedless RNG, set-ordered task spawns), and task
  hygiene (unawaited
  coroutines, dropped ``create_task`` handles, gather policy on
  shutdown paths).

See DESIGN.md Section 9 for the hazard taxonomy and rule catalogue,
Section 10 for the SIMT abstract domains and invariant encodings,
Section 14 for the array verifier's domains and soundness caveats, and
Section 15 for the aio engine's call-graph and checker semantics.
"""

from repro.analysis.aio import (
    AIO_RULES,
    analyze_source as analyze_aio_source,
    build_call_graph,
    check_aio,
)
from repro.analysis.arrays import (
    ANNOTATED_MODULES,
    ARRAY_RULES,
    NONDET_RULES,
    analyze_kernel,
    check_arrays,
    find_counterexample,
    verify_array_kernels,
)
from repro.analysis.findings import Finding, Severity, split_by_severity, worst_severity
from repro.analysis.lint import HOT_MARKER, LINT_RULES, lint_paths, lint_source, lint_tree
from repro.analysis.registry import (
    KernelSpec,
    iter_kernel_specs,
    sanitize_kernel,
    verify_kernel,
)
from repro.analysis.verifier import (
    AbstractValue,
    Interval,
    StaticBounds,
    VerificationReport,
    check_all_invariants,
    check_bounded_queue,
    check_search_invariants,
    iter_known_bad_specs,
    verify_program,
)
from repro.analysis.sanitizer import (
    DriftExpectation,
    check_drift,
    sanitize_program,
    sanitize_trace,
)
from repro.analysis.streams import (
    STREAM_RULES,
    check_stream_ops,
    check_stream_programs,
    iter_stream_programs,
)
from repro.analysis.trace import TraceRecorder

__all__ = [
    "Finding",
    "Severity",
    "worst_severity",
    "split_by_severity",
    "TraceRecorder",
    "DriftExpectation",
    "sanitize_program",
    "sanitize_trace",
    "check_drift",
    "KernelSpec",
    "iter_kernel_specs",
    "sanitize_kernel",
    "verify_kernel",
    "AbstractValue",
    "Interval",
    "StaticBounds",
    "VerificationReport",
    "verify_program",
    "check_all_invariants",
    "check_bounded_queue",
    "check_search_invariants",
    "iter_known_bad_specs",
    "STREAM_RULES",
    "check_stream_ops",
    "check_stream_programs",
    "iter_stream_programs",
    "HOT_MARKER",
    "LINT_RULES",
    "lint_source",
    "lint_paths",
    "lint_tree",
    "ANNOTATED_MODULES",
    "ARRAY_RULES",
    "NONDET_RULES",
    "analyze_kernel",
    "check_arrays",
    "find_counterexample",
    "verify_array_kernels",
    "AIO_RULES",
    "analyze_aio_source",
    "build_call_graph",
    "check_aio",
]

"""Static/dynamic analysis for the repo's SIMT substrate and hot paths.

Four engines, each selected with ``python -m repro.analysis --engines``
and all gated in ``scripts/ci.sh``:

* the **kernel sanitizer** (:mod:`repro.analysis.sanitizer`) replays
  lane-accurate :class:`TraceRecorder` streams from the
  :class:`~repro.simt.simulator.WarpSimulator` and flags SIMT hazards —
  shared-memory races, OOB accesses, uninitialized-register reads,
  divergence violations and analytic-model drift — over every microkernel
  in the :mod:`repro.analysis.registry`, launching the kernels whose
  inputs range (heap occupancy, probe home slot) at the edges of that
  range;
* the **hot-path linter** (:mod:`repro.analysis.lint`) enforces the
  vectorization invariants in modules marked ``# lint: hot-path``
  (per-element loops, float64 upcasts of packed keys, integer types
  narrower than 64 bits without a stated bound) and sweeps them and
  ``serve/`` for nondeterminism (bare argsorts, unseeded RNGs, wall-clock
  reads);
* the **invariant verifier** (:mod:`repro.analysis.verifier`, engine
  ``verifier``) checks SONG's Theorem 1–3 data-structure invariants
  against the real bounded queue and search loop;
* the **stream-hazard checker** (:mod:`repro.analysis.streams`) checks
  the device model's multi-stream programs for missing event
  dependencies.

No engine reads the serving layer's coroutines: ``tests/test_serve_faults.py``
checks them by behaviour on the virtual clock, and the serving table of
``scripts/mutants.md`` records which test catches each seeded bug.  The
vectorized host kernels have no engine of their own either: the tests
that exercise them and ``narrow-int`` catch their seeded bugs (the
array-kernel table there).

See DESIGN.md Section 9 for the hazard taxonomy and rule catalogue and
Section 10 for the invariant encodings.
"""

from repro.analysis.findings import Finding, Severity, split_by_severity, worst_severity
from repro.analysis.lint import HOT_MARKER, LINT_RULES, lint_paths, lint_source, lint_tree
from repro.analysis.registry import (
    KernelSpec,
    iter_kernel_specs,
    iter_known_bad_specs,
    sanitize_kernel,
)
from repro.analysis.verifier import (
    check_all_invariants,
    check_bounded_queue,
    check_search_invariants,
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
    "iter_known_bad_specs",
    "sanitize_kernel",
    "check_all_invariants",
    "check_bounded_queue",
    "check_search_invariants",
    "STREAM_RULES",
    "check_stream_ops",
    "check_stream_programs",
    "iter_stream_programs",
    "HOT_MARKER",
    "LINT_RULES",
    "lint_source",
    "lint_paths",
    "lint_tree",
]

"""Static analysis for the repo's hot paths and search invariants.

Two engines, each selected with ``python -m repro.analysis --engines``
and all gated in ``scripts/ci.sh``:

* the **hot-path linter** (:mod:`repro.analysis.lint`) enforces the
  vectorization invariants in modules marked ``# lint: hot-path``
  (per-element loops, float64 upcasts of packed keys, integer types
  narrower than 64 bits without a stated bound) and sweeps them and
  ``serve/`` for nondeterminism (bare argsorts, unseeded RNGs, wall-clock
  reads);
* the **invariant verifier** (:mod:`repro.analysis.verifier`, engine
  ``verifier``) checks SONG's Theorem 1–3 data-structure invariants
  against the real bounded queue and search loop.

No engine reads the serving layer's coroutines: ``tests/test_serve_faults.py``
checks them by behaviour on the virtual clock, and the serving table of
``scripts/mutants.md`` records which test catches each seeded bug.  The
vectorized host kernels have no engine of their own either: the tests
that exercise them and ``narrow-int`` catch their seeded bugs (the
array-kernel table there).  The trace sanitizer of the instruction-level
SIMT microkernels is retired: their tests check them, and
``tests/test_simt_calibration.py`` holds the analytic cost model to the
simulator's committed measurements (``benchmarks/results/simt_ratios.txt``).

See DESIGN.md Section 9 for the hazard taxonomy and rule catalogue and
Section 10 for the invariant encodings.
"""

from repro.analysis.findings import Finding, Severity, split_by_severity, worst_severity
from repro.analysis.lint import HOT_MARKER, LINT_RULES, lint_paths, lint_source, lint_tree
from repro.analysis.verifier import (
    check_all_invariants,
    check_bounded_queue,
    check_search_invariants,
)

__all__ = [
    "Finding",
    "Severity",
    "worst_severity",
    "split_by_severity",
    "check_all_invariants",
    "check_bounded_queue",
    "check_search_invariants",
    "HOT_MARKER",
    "LINT_RULES",
    "lint_source",
    "lint_paths",
    "lint_tree",
]

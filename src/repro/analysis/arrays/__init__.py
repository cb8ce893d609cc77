"""Array-program static verifier: the analysis package's third engine.

An abstract interpreter (:mod:`repro.analysis.arrays.interp`) runs each
``@array_kernel``-decorated host kernel over a symbolic-shape / dtype /
value-interval domain (:mod:`sym`, :mod:`values`, :mod:`dtypes`,
:mod:`transfer`) and reports:

* ``packed-key-overflow`` — composite keys like ``row * n + id`` that
  can exceed their dtype, with the smallest concrete counterexample;
* ``broadcast-mismatch`` — elementwise ops over provably incompatible
  symbolic extents;
* ``fancy-index-oob`` — gathers/scatters whose declared index bounds
  provably escape the indexed dim;
* ``inplace-aliasing`` — ``out[idx] op= v`` through non-unique indices
  (numpy's unbuffered read-modify-write drops contributions);
* ``nondet-sort`` / ``nondet-rng`` / ``nondet-clock`` — run-to-run
  divergence hazards, value-aware inside kernels (a bare ``argsort``
  over provably *unique* keys is recorded as a proven obligation, not a
  finding) and syntactic elsewhere (:mod:`nondet`).

Kernels opt in via :func:`repro.annotations.array_kernel`; the modules
listed in :data:`ANNOTATED_MODULES` are imported by :func:`check_arrays`
so their registrations are visible.  DESIGN.md Section 14 documents the
domains, transfer functions and soundness caveats.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from repro.analysis.arrays.interp import analyze_kernel, find_counterexample
from repro.analysis.arrays.nondet import (
    NONDET_RULES,
    kernel_spans,
    scan_paths,
    scan_source,
)
from repro.analysis.findings import Finding
from repro.annotations import iter_array_annotations

__all__ = [
    "ANNOTATED_MODULES",
    "ARRAY_RULES",
    "NONDET_RULES",
    "analyze_kernel",
    "find_counterexample",
    "check_arrays",
    "verify_array_kernels",
    "scan_source",
    "scan_paths",
    "kernel_spans",
]

ARRAY_RULES = (
    "packed-key-overflow",
    "broadcast-mismatch",
    "fancy-index-oob",
    "inplace-aliasing",
) + NONDET_RULES

#: Hot modules whose kernels carry @array_kernel contracts.  Importing
#: them populates the default annotation registry; the acceptance bar is
#: a clean --arrays --strict run over at least eight of these.
ANNOTATED_MODULES = (
    "repro.structures.soa",
    "repro.graphs.storage",
    "repro.graphs.nn_descent",
    "repro.graphs.cagra",
    "repro.graphs.nsg",
    "repro.graphs.dpg",
    "repro.graphs._repair",
    "repro.core.batched",
    "repro.hashing.random_projection",
    "repro.tiered.cache",
    "repro.tiered.index",
)


def _import_annotated(include_known_bad: bool = False) -> None:
    for mod in ANNOTATED_MODULES:
        importlib.import_module(mod)
    if include_known_bad:
        importlib.import_module("repro.analysis.arrays.fixtures")


def check_arrays(
    include_known_bad: bool = False,
    nondet_paths: Optional[Iterable[Path]] = None,
) -> List[Finding]:
    """Run the array verifier: abstract interpretation + nondet sweep.

    Imports :data:`ANNOTATED_MODULES` (plus the known-bad fixtures when
    requested), analyzes every registered kernel, then syntactically
    sweeps the hot-marked modules and ``serve/`` for nondeterminism
    outside kernel spans.  Accepted findings are suppressed by the
    caller through :mod:`repro.analysis.baseline`.
    """
    findings, _ = _run(include_known_bad, nondet_paths)
    return findings


def _default_nondet_paths() -> List[Path]:
    root = Path(__file__).resolve().parents[3]  # src/repro
    return sorted(root.rglob("*.py"))


def _run(
    include_known_bad: bool,
    nondet_paths: Optional[Iterable[Path]],
) -> Tuple[List[Finding], List[str]]:
    _import_annotated(include_known_bad=include_known_bad)
    registries = ["default"] + (["known-bad"] if include_known_bad else [])
    findings: List[Finding] = []
    proven: List[str] = []
    for registry in registries:
        for ann in iter_array_annotations(registry=registry):
            kernel_findings, kernel_proven = analyze_kernel(ann)
            findings.extend(kernel_findings)
            proven.extend(kernel_proven)
    spans = kernel_spans(
        registries=("default", "known-bad") if include_known_bad else ("default",)
    )
    paths = nondet_paths if nondet_paths is not None else _default_nondet_paths()
    findings.extend(scan_paths(paths, spans=spans))
    return findings, proven


def verify_array_kernels(
    include_known_bad: bool = False,
) -> "Tuple[List[Finding], List[str], int]":
    """Full report: ``(findings, proven obligations, kernel count)``."""
    findings, proven = _run(include_known_bad, nondet_paths=None)
    _import_annotated(include_known_bad=include_known_bad)
    registries = ["default"] + (["known-bad"] if include_known_bad else [])
    kernels = sum(
        1 for r in registries for _ in iter_array_annotations(registry=r)
    )
    return findings, proven, kernels

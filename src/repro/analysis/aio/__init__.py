"""Async-concurrency static analyzer for the serving layer (engine 4).

``repro.analysis.aio`` checks the coroutine code in ``repro.serve`` (and
the stream-model integration points in ``repro.simt.streams``) the way
the SIMT sanitizer checks kernels: await points are interleaving
boundaries, lock/semaphore acquisition contexts are tracked (including
lazily-constructed semaphores behind factory methods), and four checker
families gate CI —
atomicity-across-await, lock-order inversion, virtual-time determinism,
and task hygiene.  See DESIGN.md Sec. 15 for semantics and soundness
caveats.

Entry points:

* :func:`analyze_source` — one source string, for tests;
* :func:`check_aio` — the CLI/CI driver over the default path set;
* :data:`AIO_RULES` — every rule id the engine can emit.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.aio.callgraph import CallGraph, build_call_graph
from repro.analysis.aio.checkers import AIO_RULES, run_checkers
from repro.analysis.aio.model import ModuleModel, extract_module, extract_paths
from repro.analysis.findings import Finding

__all__ = [
    "AIO_RULES",
    "CallGraph",
    "ModuleModel",
    "analyze_source",
    "build_call_graph",
    "check_aio",
    "default_paths",
    "extract_module",
    "extract_paths",
    "run_checkers",
]


def default_paths(root: Optional[Path] = None) -> List[Path]:
    """The committed scan set: every serve module plus the stream model."""
    if root is None:
        root = Path(__file__).resolve().parents[2]  # src/repro
    paths = sorted((root / "serve").glob("*.py"))
    streams = root / "simt" / "streams.py"
    if streams.exists():
        paths.append(streams)
    return paths


def analyze_source(source: str, path: str = "<string>") -> List[Finding]:
    """Extract + check one source string (test entry point)."""
    module = extract_module(source, path=path)
    return run_checkers([module])


def check_aio(
    include_known_bad: bool = False,
    paths: Optional[Sequence[Path]] = None,
    root: Optional[Path] = None,
) -> List[Finding]:
    """Run the aio engine over ``paths`` (default: the committed scan set).

    ``include_known_bad`` appends the negative-control fixtures, whose
    findings (and ``aio-known-bad-miss`` ERRORs for any silent fixture)
    let CI assert the checkers still catch what they must catch.
    """
    scan = list(paths) if paths is not None else default_paths(root)
    modules = extract_paths(scan)
    findings = run_checkers(modules)
    if include_known_bad:
        from repro.analysis.aio.fixtures import check_known_bad

        findings.extend(check_known_bad())
    return findings

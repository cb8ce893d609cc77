"""CLI for the analysis engines: ``python -m repro.analysis``.

Six engines share this entry point:

* ``sanitizer`` — trace-based SIMT kernel sanitizer over every
  registered microkernel;
* ``lint`` — hot-path linter over ``src/repro``;
* ``verifier`` — static SIMT verifier (abstract interpretation of every
  registered kernel plus the Theorem 1–3 search-invariant checks);
* ``streams`` — stream-program hazard checker over the device model;
* ``arrays`` — array-program verifier (symbolic shapes, dtype lattice,
  value intervals, packed-key overflow proofs) plus the syntactic
  nondeterminism sweep;
* ``aio`` — async-concurrency analyzer over the serving layer
  (atomicity across await, lock-order inversion, virtual-time
  determinism, task hygiene; DESIGN.md Sec. 15).

``--engines NAME[,NAME...]`` selects exactly the engines to run; without
it the default set is sanitizer+lint.

Exit status: 1 if any ``error``-severity finding is present; with
``--strict``, ``warning`` findings also fail (the CI setting).

``--baseline FILE`` points at the consolidated baseline
(``scripts/analysis_baseline.json``) whose per-engine ``suppress``
sections drop accepted findings; stale entries surface as warnings.
``--json`` emits machine-readable findings (one object per line, with an
``engine`` key) in a deterministic cross-engine order.
``--include-known-bad`` adds each engine's deliberately broken fixtures
— the negative control ci.sh uses to prove the gates actually fail.
Per-engine wall times are reported in text mode and any engine slower
than 60 s warns on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.baseline import apply_baseline, load_baseline_sections
from repro.analysis.findings import Finding, split_by_severity
from repro.analysis.lint import lint_tree
from repro.analysis.registry import iter_kernel_specs, sanitize_kernel, verify_kernel

#: Engine names accepted by ``--engines``, in canonical run order.
ENGINE_NAMES = ("sanitizer", "lint", "verifier", "streams", "arrays", "aio")

#: Seconds after which an engine's runtime warns on stderr.
SLOW_ENGINE_S = 60.0


def _default_lint_root() -> Path:
    # src/repro/analysis/__main__.py -> src/repro
    return Path(__file__).resolve().parent.parent


def _finding_sort_key(f: Finding):
    """Deterministic cross-engine order: errors first, then by place."""
    return (
        f.severity.value != "error",
        f.location,
        f.rule,
        f.engine,
        f.message,
    )


def _run_sanitizer(include_known_bad: bool, lint_root) -> List[Finding]:
    out: List[Finding] = []
    for spec in iter_kernel_specs():
        out.extend(sanitize_kernel(spec))
    return out


def _run_lint(include_known_bad: bool, lint_root) -> List[Finding]:
    return lint_tree(lint_root or _default_lint_root())


def _run_verifier(include_known_bad: bool, lint_root) -> List[Finding]:
    from repro.analysis.verifier.fixtures import iter_known_bad_specs
    from repro.analysis.verifier.invariants import check_all_invariants

    out: List[Finding] = []
    for spec in iter_kernel_specs():
        out.extend(verify_kernel(spec).findings)
    if include_known_bad:
        for spec in iter_known_bad_specs():
            out.extend(verify_kernel(spec).findings)
    out.extend(check_all_invariants())
    return out


def _run_streams(include_known_bad: bool, lint_root) -> List[Finding]:
    from repro.analysis.streams import check_stream_programs

    return check_stream_programs(include_known_bad=include_known_bad)


def _run_arrays(include_known_bad: bool, lint_root) -> List[Finding]:
    from repro.analysis.arrays import check_arrays

    return check_arrays(include_known_bad=include_known_bad)


def _run_aio(include_known_bad: bool, lint_root) -> List[Finding]:
    from repro.analysis.aio import check_aio

    return check_aio(include_known_bad=include_known_bad)


_ENGINE_RUNNERS: Dict[str, Callable[..., List[Finding]]] = {
    "sanitizer": _run_sanitizer,
    "lint": _run_lint,
    "verifier": _run_verifier,
    "streams": _run_streams,
    "arrays": _run_arrays,
    "aio": _run_aio,
}


def run_engines(
    engines: Sequence[str],
    strict: bool = False,
    include_known_bad: bool = False,
    lint_root: Optional[Path] = None,
    baseline: Optional[Path] = None,
    timings: Optional[Dict[str, float]] = None,
) -> "tuple[List[Finding], int]":
    """Run the named engines; returns ``(findings, exit_code)``.

    Findings are stamped with their engine name, filtered through the
    engine's section of the consolidated baseline, and sorted with
    :func:`_finding_sort_key`.  When ``timings`` is a dict, per-engine
    wall seconds are recorded into it.
    """
    for name in engines:
        if name not in _ENGINE_RUNNERS:
            raise ValueError(
                f"unknown engine {name!r}; expected one of {ENGINE_NAMES}"
            )
    sections = load_baseline_sections(baseline) if baseline else {}
    findings: List[Finding] = []
    for name in ENGINE_NAMES:
        if name not in engines:
            continue
        started = time.perf_counter()
        raw = _ENGINE_RUNNERS[name](include_known_bad, lint_root)
        elapsed = time.perf_counter() - started
        if timings is not None:
            timings[name] = elapsed
        if elapsed > SLOW_ENGINE_S:
            print(
                f"repro.analysis: warning: engine {name!r} took "
                f"{elapsed:.1f}s (> {SLOW_ENGINE_S:.0f}s)",
                file=sys.stderr,
            )
        stamped = [
            f if f.engine else dataclasses.replace(f, engine=name)
            for f in raw
        ]
        findings.extend(apply_baseline(stamped, sections, name))
    findings.sort(key=_finding_sort_key)
    errors, warnings = split_by_severity(findings)
    failed = bool(errors) or (strict and bool(warnings))
    return findings, 1 if failed else 0


def _parse_engines(spec: str) -> List[str]:
    names = [part.strip() for part in spec.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("--engines needs at least one name")
    for name in names:
        if name not in ENGINE_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown engine {name!r}; expected one of "
                + ",".join(ENGINE_NAMES)
            )
    return names


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "analysis engines: SIMT sanitizer, hot-path lint, static "
            "verifier, stream hazards, array verifier, async-concurrency "
            "(aio)"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (the CI gate setting)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit findings as JSON lines"
    )
    parser.add_argument(
        "--engines",
        type=_parse_engines,
        default=["sanitizer", "lint"],
        metavar="NAME[,NAME...]",
        help="run exactly these engines "
        f"({','.join(ENGINE_NAMES)}); default sanitizer,lint",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="consolidated findings-baseline JSON with per-engine "
        '"suppress" sections (scripts/analysis_baseline.json); stale '
        "entries warn",
    )
    parser.add_argument(
        "--include-known-bad",
        action="store_true",
        help="run each engine's known-bad fixtures too (negative CI "
        "control; implies a failing exit)",
    )
    parser.add_argument(
        "--lint-root",
        type=Path,
        default=None,
        help="directory tree to lint (default: the installed repro package)",
    )
    args = parser.parse_args(argv)

    timings: Dict[str, float] = {}
    findings, code = run_engines(
        args.engines,
        strict=args.strict,
        include_known_bad=args.include_known_bad,
        lint_root=args.lint_root,
        baseline=args.baseline,
        timings=timings,
    )
    errors, warnings = split_by_severity(findings)
    if args.json:
        for f in findings:
            print(
                json.dumps(
                    {
                        "rule": f.rule,
                        "severity": f.severity.value,
                        "location": f.location,
                        "message": f.message,
                        "engine": f.engine,
                    }
                )
            )
    else:
        for f in findings:
            print(f.format())
        timing = ", ".join(
            f"{name}={timings[name]:.2f}s"
            for name in ENGINE_NAMES
            if name in timings
        )
        label = "FAIL" if code else "OK"
        strict_note = ", strict" if args.strict else ""
        print(
            f"repro.analysis: {label} — {len(errors)} error(s), "
            f"{len(warnings)} warning(s){strict_note} [{timing}]"
        )
    return code


if __name__ == "__main__":
    sys.exit(main())

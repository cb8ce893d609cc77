"""Mutant catalogue for the instruction-level layer (outside tier-1).

Seeds one bug at a time into a *copy* of the source tree — the
microkernels in ``simt/kernels.py`` and the cost constants they are
checked against — and records which checkers fail on it:

* ``sanitizer`` — ``python -m repro.analysis --engines sanitizer --strict``
* ``verifier``  — ``python -m repro.analysis --engines verifier --strict``
* ``tests``     — the tests that exercise the microkernels
  (``TESTS`` below) plus ``benchmarks/bench_ablation_cost_model.py``.

Two trees are mutated: the working tree and the commit before the static
kernel verifier was deleted (``PARENT``, exported with ``git archive``), so
each row names its catchers before and after that deletion.  A mutant whose
source snippet no longer matches as often as declared aborts the run
instead of silently testing nothing.  The unmutated tree must be clean on every
checker, or the run aborts too.

    python scripts/mutants.py                    # rewrite scripts/mutants.md
    python scripts/mutants.py --out table.md     # write the table elsewhere

About two minutes on a 2-vCPU VM: the two trees run in parallel, one
subprocess at a time each, every subprocess capped at 120 s and 2 GiB of
address space.  The repository itself is never written to, apart from
``--out``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO = Path(__file__).resolve().parent.parent

#: The commit the deletion of the static kernel verifier is measured
#: against (its parent); the table's labels describe this commit.
PARENT = "9f817304b82709f1e9b6b0044cece77474f49d88"

TESTS = [
    "tests/test_model_drift.py",
    "tests/test_simt_kernels.py",
    "tests/test_isa_simulator.py",
    "tests/test_ir_heap_cosine.py",
    "tests/test_warp_probe.py",
    "benchmarks/bench_ablation_cost_model.py",
]

#: Directories a checker run needs from a tree.
COPIED = ("src", "tests", "benchmarks", "scripts")

STEP_TIMEOUT_S = 120
STEP_MEMORY_BYTES = 2 << 30

KERNELS = "src/repro/simt/kernels.py"


@dataclass(frozen=True)
class Mutant:
    """Replace ``old`` by ``new`` in ``path``, within the text that starts
    at ``scope`` and runs to the next top-level ``def`` (or the whole
    file when ``scope`` is empty); ``old`` must occur ``count`` times."""

    mid: str
    title: str
    path: str
    old: str
    new: str
    scope: str = ""
    count: int = 1


MUTANTS = [
    Mutant(
        "M1", "shuffle under a `lane < delta` guard in `warp_reduce_kernel`",
        KERNELS,
        '''    program: List[isa.Instruction] = []
    delta = WARP_SIZE // 2
    while delta >= 1:
        program.append(isa.ShflDown(dst="shfl_tmp", src=src, delta=delta))
''',
        '''    program: List[isa.Instruction] = [isa.LaneId(dst="rlane")]
    delta = WARP_SIZE // 2
    while delta >= 1:
        program.append(isa.Cmp(rel="lt", dst="rguard", a="rlane", b=float(delta)))
        program.append(isa.If(pred="rguard"))
        program.append(isa.ShflDown(dst="shfl_tmp", src=src, delta=delta))
        program.append(isa.EndIf())
''',
        scope="def warp_reduce_kernel",
    ),
    Mutant(
        "M2", "reduction starts at `WARP_SIZE // 4`", KERNELS,
        "    delta = WARP_SIZE // 2\n", "    delta = WARP_SIZE // 4\n",
        scope="def warp_reduce_kernel",
    ),
    Mutant(
        "M3", "`le` for `lt` in `squared_l2_kernel`'s loop test", KERNELS,
        'isa.Cmp(rel="lt", dst="more", a="i", b=float(dim))',
        'isa.Cmp(rel="le", dst="more", a="i", b=float(dim))',
        scope="def squared_l2_kernel", count=2,
    ),
    Mutant(
        "M4", "heap push without the `has_room` guard", KERNELS,
        'isa.If(pred="do_push"),', 'isa.If(pred="is0"),',
        scope="def heap_push_kernel",
    ),
    Mutant(
        "M5", "probe address `table_base − slot` (negative shared read)",
        KERNELS,
        'isa.Binary(op="add", dst="addr", a="table_base", b="slot"),',
        'isa.Binary(op="sub", dst="addr", a="table_base", b="slot"),',
        scope="def warp_parallel_probe_kernel",
    ),
    Mutant(
        "M6", "`seq_op_cycles` × 3", "src/repro/simt/device.py",
        "    seq_op_cycles: int = 20\n", "    seq_op_cycles: int = 60\n",
    ),
    Mutant(
        "M7", "`read_coalesced` rounds up one extra transaction at exact "
        "multiples of 128 B", "src/repro/simt/memory.py",
        "return count * -(-num_bytes // COALESCED_TRANSACTION_BYTES)",
        "return count * ((num_bytes + COALESCED_TRANSACTION_BYTES) "
        "// COALESCED_TRANSACTION_BYTES)",
    ),
    Mutant(
        "M8", "accumulator written by lanes 0–15 only, then read by all "
        "lanes (`squared_l2_kernel`)", KERNELS,
        '        isa.Mov(dst="acc", src=0.0),\n',
        '''        isa.Cmp(rel="lt", dst="low", a="lane", b=16.0),
        isa.If(pred="low"),
        isa.Mov(dst="acc", src=0.0),
        isa.EndIf(),
''',
        scope="def squared_l2_kernel",
    ),
    Mutant(
        "M9", "`While` predicate never rewritten in the loop body "
        "(`single_lane_scan_kernel`)", KERNELS,
        '''        isa.Binary(op="add", dst="i", a="i", b=1.0),
        isa.Cmp(rel="lt", dst="more", a="i", b=float(count)),
''',
        '''        isa.Binary(op="add", dst="i", a="i", b=1.0),
''',
        scope="def single_lane_scan_kernel",
    ),
    Mutant(
        "M10", "stride-2 `Lds` of the query (2-way bank conflict; breaks "
        "`max_shared_conflict_cycles = 0`) in `squared_l2_kernel`", KERNELS,
        '        isa.Binary(op="add", dst="q_addr", a="query_base", b="i"),\n',
        '''        isa.Binary(op="mul", dst="q_off", a="i", b=2.0),
        isa.Binary(op="and", dst="q_off", a="q_off", b=float(dim - 1)),
        isa.Binary(op="add", dst="q_addr", a="query_base", b="q_off"),
''',
        scope="def squared_l2_kernel",
    ),
]

#: Catalogue entries with no expressible mutant, and why.
INEXPRESSIBLE = [
    ("M11", "dropped `__syncwarp`",
     "the ISA (`simt/isa.py`) has no barrier instruction; reconvergence "
     "is implicit at `EndIf` and loop exit, so there is nothing to drop"),
]

CHECKERS = ("sanitizer", "verifier", "tests")


def _limit_resources() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (STEP_MEMORY_BYTES, STEP_MEMORY_BYTES))


def _run(tree: Path, args: List[str]) -> subprocess.CompletedProcess:
    env = dict(
        os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
    )
    try:
        return subprocess.run(
            [sys.executable, *args], cwd=tree, env=env, capture_output=True,
            text=True, timeout=STEP_TIMEOUT_S, preexec_fn=_limit_resources,
        )
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(args, -1, "", "timeout")


def _crash(proc: subprocess.CompletedProcess) -> str:
    lines = [l for l in proc.stderr.strip().splitlines() if l.strip()]
    last = lines[-1] if lines else f"exit {proc.returncode}"
    return "crash: " + last.split(":")[0].strip()


def _engine(tree: Path, engine: str) -> Optional[str]:
    """``None`` when clean, else a short description of the failure."""
    proc = _run(tree, ["-m", "repro.analysis", "--engines", engine,
                       "--strict", "--json"])
    if proc.returncode == 0:
        return None
    try:
        rules = sorted({json.loads(l)["rule"] for l in proc.stdout.splitlines()
                        if l.strip()})
    except json.JSONDecodeError:
        rules = []
    return ", ".join(rules) if rules else _crash(proc)


def _tests(tree: Path) -> Optional[str]:
    proc = _run(tree, ["-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                       "--benchmark-disable", *TESTS])
    if proc.returncode == 0:
        return None
    failed = re.findall(r"^FAILED (\S+?)::", proc.stdout, flags=re.M)
    counts: Dict[str, int] = {}
    for path in failed:
        name = Path(path).stem
        counts[name] = counts.get(name, 0) + 1
    if not counts:
        return _crash(proc)
    return ", ".join(f"{name} ({n})" for name, n in sorted(counts.items()))


def _check(tree: Path) -> Dict[str, Optional[str]]:
    return {
        "sanitizer": _engine(tree, "sanitizer"),
        "verifier": _engine(tree, "verifier"),
        "tests": _tests(tree),
    }


def _apply(tree: Path, mutant: Mutant) -> Tuple[Path, str]:
    path = tree / mutant.path
    original = path.read_text()
    start = original.index(mutant.scope) if mutant.scope else 0
    end = original.find("\ndef ", start + 1) if mutant.scope else -1
    end = len(original) if end < 0 else end
    region = original[start:end]
    found = region.count(mutant.old)
    if found != mutant.count:
        raise SystemExit(
            f"{mutant.mid}: expected {mutant.count} match(es) of its snippet "
            f"in {mutant.path}, found {found}"
        )
    mutated = region.replace(mutant.old, mutant.new)
    path.write_text(original[:start] + mutated + original[end:])
    return path, original


def _copy_worktree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".cache", "results", "*.pyc")
    for name in COPIED:
        shutil.copytree(REPO / name, dest / name, ignore=ignore)


def _export_commit(dest: Path) -> None:
    blob = subprocess.run(
        ["git", "archive", "--format=tar", PARENT, *COPIED], cwd=REPO,
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)


def catalogue(tree: Path, label: str) -> Dict[str, Dict[str, Optional[str]]]:
    """Run every mutant on ``tree`` (restoring each file afterwards)."""
    baseline = _check(tree)
    dirty = {k: v for k, v in baseline.items() if v}
    if dirty:
        raise SystemExit(f"{label}: unmutated tree is not clean: {dirty}")
    results = {}
    for mutant in MUTANTS:
        path, original = _apply(tree, mutant)
        try:
            results[mutant.mid] = _check(tree)
        finally:
            path.write_text(original)
        print(f"{label} {mutant.mid}: {results[mutant.mid]}", file=sys.stderr)
    return results


def _cell(verdict: Optional[str]) -> str:
    return "✗" if verdict is None else f"✓ {verdict}"


def render(results: Dict[str, Dict]) -> str:
    parent, change = results["parent"], results["change"]
    out = [
        "# Mutant catalogue: the instruction-level layer",
        "",
        "Generated by `python scripts/mutants.py` (do not edit by hand).",
        f"`parent` is commit `{PARENT[:12]}`, which still has the static",
        "kernel verifier (abstract interpreter) inside the `verifier` engine;",
        "`change` is the working tree, where `verifier` runs only the",
        "Theorem 1–3 invariant checks.  ✓ = the checker fails on the mutant",
        "(with the rules it reported, or the failing test files and counts);",
        "`crash: X` = the engine itself raised `X`, so the gate fails with a",
        "traceback instead of a finding; ✗ = it passes.",
        "`tests` = " + ", ".join(f"`{Path(t).name}`" for t in TESTS) + ".",
        "",
        "| id | mutant | parent: sanitizer | parent: verifier | parent: tests "
        "| change: sanitizer | change: verifier | change: tests |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for m in MUTANTS:
        p, c = parent[m.mid], change[m.mid]
        cells = [_cell(p[k]) for k in CHECKERS] + [_cell(c[k]) for k in CHECKERS]
        out.append(f"| {m.mid} | {m.title} | " + " | ".join(cells) + " |")
    for mid, title, why in INEXPRESSIBLE:
        out.append(f"| {mid} | {title} | " + " | ".join(["—"] * 6) + " |")
    out += [""] + [f"{mid} is not run: {why}." for mid, _, why in INEXPRESSIBLE]
    sole = []
    for m in MUTANTS:
        catchers = [k for k in CHECKERS if change[m.mid][k]]
        if len(catchers) == 1:
            sole.append(f"{m.mid} ({catchers[0]})")

    verifier_only = [
        m.mid for m in MUTANTS
        if parent[m.mid]["verifier"] and not parent[m.mid]["sanitizer"]
    ]
    lost = [
        m.mid for m in MUTANTS
        if any(parent[m.mid][k] for k in ("sanitizer", "verifier"))
        and not any(change[m.mid][k] for k in CHECKERS)
    ]
    uncaught = [m.mid for m in MUTANTS if not any(change[m.mid][k] for k in CHECKERS)]
    out += [
        "",
        "## Reading",
        "",
        "- Caught at the parent by the static kernel verifier and not by the "
        "sanitizer: " + (", ".join(verifier_only) or "none") + ".",
        "- Caught at the parent by an analysis engine and by nothing at the "
        "change: " + (", ".join(lost) or "none") + ".",
        "- Caught by nothing at the change: " + (", ".join(uncaught) or "none")
        + ".",
        "- Caught by exactly one checker at the change: "
        + (", ".join(sole) or "none") + ".",
    ]
    return "\n".join(out) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=REPO / "scripts" / "mutants.md")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        _export_commit(trees["parent"])
        _copy_worktree(trees["change"])
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = {label: pool.submit(catalogue, tree, label)
                       for label, tree in trees.items()}
            results = {label: f.result() for label, f in futures.items()}
    args.out.write_text(render(results))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating parent/change pairs of the repository's benchmark.

Exports two trees into a temporary directory with ``scripts/mutants.py``'s
copy helpers: the parent commit (``git archive``) and the change (the
working tree).  Then, per workload, it runs
``benchmarks/e2e/run.py --workload W --seed S --trace T`` in each tree,
one process per run, parent and change alternating (the side that runs
first flips every pair), for N pairs with seeds 1..N.  Per metric it
prints the clock, both medians with their min–max, the distance
between the parent's quartiles, the change's move against the parent
median, the pairs the change won (for the metrics ``BENCHMARK.json``
ranks; its ``extra`` views are left blank), and, for ``modeled`` and
``count`` metrics, whether both sides read the same value on every seed.
Values are read at full precision from ``run.py``'s closing JSON line.

    python scripts/pairs.py --workload build_index            # 10 pairs
    python scripts/pairs.py --workload build_index --trace 1   # per-layer
    python scripts/pairs.py --scale smoke --pairs 1 --seconds 1

To compare two commits, check out the later one and pass the earlier as
``--parent``.  Without ``--workload`` it runs every workload of
``BENCHMARK.json``; without ``--seconds`` each run lasts as long as
``run.py``'s own default.  A full-scale pair costs about twice the run
length plus set-up (≈ 30 s at 12 s runs).  Exits 1 when a run fails or a ``modeled`` / ``count``
metric differs on some seed, unless that metric is named with
``--may-move``; 0 otherwise.  The repository itself is never written to.

Read ``host_ref`` metrics with their tick beside them (the ``extra`` rows
``host.ref_tick_ms`` and ``host.items_per_s``): on a 2-vCPU VM the
reference tick of one process settles near 17 or near 22 ms depending
on the memory layout the process happens to get, which moves with the
checkout's path and with any source edit.  Across eight path lengths
``serve_loadtest``'s ``host_cost_ref`` read 41–57 for the parent and
43–60 for a change that does not touch serving, with raw throughput
flat; a pair set taken at one path can show ±30 % that is only that.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent))

from mutants import REPO, _copy_worktree, _export_commit  # noqa: E402

#: What a benchmark run needs from a tree.
TREE = ("src", "benchmarks", "BENCHMARK.json")

#: Clocks whose values repeat bit for bit for a fixed seed.
EXACT_CLOCKS = ("modeled", "count")

SIDES = ("parent", "change")

#: Seconds one run may take before it is killed and counted as failed.
RUN_TIMEOUT_S = 600


def run_once(tree: Path, workload: str, seed: int, args) -> Dict:
    """One ``run.py`` process: ``{"values", "clocks", "failed", "error"}``."""
    command = [
        sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", str(args.trace), "--scale", args.scale,
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"values": {}, "clocks": {}, "failed": 1, "error": "timeout"}
    lines = proc.stdout.strip().splitlines()
    # the clock is only in the table; the values come from the JSON line,
    # which the table rounds to six decimals
    clocks: Dict[str, str] = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) == 4 and not line.startswith("{"):
            clocks[parts[0]] = parts[3]
    try:
        result = json.loads(lines[-1])
        extra = json.loads(lines[-2])["extra"]
        values = {name: float(m["value"]) for name, m in result["metrics"].items()}
    except (IndexError, KeyError, TypeError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"values": {}, "clocks": clocks, "failed": 1, "error": tail[0]}
    # run.py's own views of its host clock (items/s, the tick, ...)
    for name, value in extra.items():
        if isinstance(value, (int, float)) and name not in values:
            values[name], clocks[name] = float(value), "extra"
    failed = result["failed"] + (proc.returncode != 0)
    error = next((l for l in lines if l.startswith("FAILED ")), None)
    return {"values": values, "clocks": clocks, "failed": failed, "error": error}


def run_pairs(trees: Dict[str, Path], workload: str, args) -> List[Dict[str, Dict]]:
    """``args.pairs`` pairs, seeds 1..N; the first side flips every pair."""
    pairs = []
    for i in range(args.pairs):
        seed = i + 1
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_once(trees[side], workload, seed, args) for side in order}
        pairs.append(pair)
        moved = {
            name: f"{pair['parent']['values'].get(name, float('nan')):.6g} -> "
                  f"{pair['change']['values'].get(name, float('nan')):.6g}"
            for name in ("host_cost_ref", "graphs.hnsw_cost_ref")
            if name in pair["change"]["values"]
        }
        print(f"# {workload} seed {seed}: {moved}", file=sys.stderr, flush=True)
    return pairs


def _span(values: Sequence[float]) -> str:
    return f"{statistics.median(values):.6g} [{min(values):.6g}, {max(values):.6g}]"


def _iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def report(workload: str, pairs: List[Dict[str, Dict]], better: Dict[str, str],
           may_move: Sequence[str]) -> List[str]:
    """Print one table row per metric; return the exact metrics that moved."""
    moved = []
    clocks = pairs[0]["change"]["clocks"]
    for name, clock in clocks.items():
        both = [(p["parent"]["values"].get(name), p["change"]["values"].get(name))
                for p in pairs]
        both = [(a, b) for a, b in both if a is not None and b is not None]
        if not both:
            continue
        parent, change = [a for a, _ in both], [b for _, b in both]
        direction = better.get(name)
        wins = ""
        if direction is not None:
            won = sum((b < a) if direction == "lower" else (b > a) for a, b in both)
            wins = f"{won} of {len(both)}"
        base = statistics.median(parent)
        shift = (statistics.median(change) - base) / base if base else 0.0
        same = ""
        if clock in EXACT_CLOCKS:
            same = "yes" if all(a == b for a, b in both) else "no"
            if same == "no" and name not in may_move:
                moved.append(name)
        print(f"| {workload} | {name} | {clock} | {_span(parent)} | {_iqr(parent):.6g} "
              f"| {_span(change)} | {shift:+.1%} | {wins} | {same} |")
    return moved


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        help="run length passed to run.py (default: run.py's own)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--parent", default="HEAD", help="commit to export (default HEAD)")
    parser.add_argument("--may-move", nargs="*", default=[],
                        help="modeled / count metrics the change means to move")
    args = parser.parse_args(argv)
    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in contract["end_to_end"] + contract["per_layer"]}
    workloads = args.workload or [w["name"] for w in contract["workloads"]]

    started = time.perf_counter()
    failed = []
    moved = []
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        _export_commit(trees["parent"], args.parent, TREE)
        _copy_worktree(trees["change"], TREE)
        seconds = "run.py's default" if args.seconds is None else args.seconds
        print(f"parent {args.parent}, change: the working tree, {args.pairs} pair(s), "
              f"seeds 1..{args.pairs}, --seconds {seconds} --trace {args.trace} "
              f"--scale {args.scale}")
        print("| workload | metric | clock | parent median [min, max] | parent IQR "
              "| change median [min, max] | change | change better in | identical per seed |")
        print("|---|---|---|---|---|---|---|---|---|")
        for workload in workloads:
            pairs = run_pairs(trees, workload, args)
            for i, pair in enumerate(pairs):
                for side, run in pair.items():
                    if run["failed"]:
                        failed.append(f"{workload} seed {i + 1} {side}: "
                                      f"{run['error']}")
            if all(p[s]["values"] for p in pairs for s in SIDES):
                moved += [f"{workload} {name}"
                          for name in report(workload, pairs, better, args.may_move)]
    print(f"({time.perf_counter() - started:.0f} s)")
    for line in failed:
        print(f"FAILED {line}")
    for line in moved:
        print(f"MOVED {line}")
    return 1 if failed or moved else 0


if __name__ == "__main__":
    sys.exit(main())

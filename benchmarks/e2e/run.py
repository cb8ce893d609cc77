#!/usr/bin/env python3
"""End-to-end benchmark of the SONG reproduction: one workload per invocation.

Driver mode (what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

prints an environment block on the first line, one ``name value unit clock``
row per metric, and one JSON object on the last line: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  It runs in one
process on one thread and starts no child.  Without ``src/repro`` beside it, it
prints no result and exits 2.

For people: ``--smoke`` (all four workloads at n=2000, one child each),
``--check-repeat`` (every workload twice per seed: do modeled and count
metrics repeat exactly, host metrics within their bound?) and
``--check-spread`` (ten seeds: is every spread inside a third of its bound?).
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import collections
import ctypes
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import spec  # noqa: E402  (stdlib-only; safe before the thread variables are set)

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
EXIT_OK, EXIT_FAILED, EXIT_UNUSABLE = 0, 1, 2

#: Seeds of ``--check-repeat`` and ``--check-spread``: small and large mixed,
#: because the driver's seeds are not ours to choose.
REPEAT_SEEDS = (3, 1_000_003)
SPREAD_SEEDS = (1, 2, 3, 5, 8, 13, 1001, 65_537, 123_456_789, 2_147_483_647)
CHILD_TIMEOUT_S = 180

#: One timed call: raw seconds plus the positions of its bracketing ticks.
Sample = collections.namedtuple("Sample", "label seconds before after")


# ---------------------------------------------------------------------------
# driver mode
# ---------------------------------------------------------------------------


class OpTimer:
    """Hands workloads their ``timed`` callback and keeps samples per operation."""

    def __init__(self, meter, wrap: Optional[Callable] = None) -> None:
        self.meter = meter
        self.wrap = wrap
        self.ops: List[List[Sample]] = []

    def begin_op(self) -> None:
        self.ops.append([])

    def timed(self, label: str, call: Callable[[], object]):
        if self.wrap is not None:
            result, seconds, before, after = self.meter.timed(self.wrap, call)
        else:
            result, seconds, before, after = self.meter.timed(call)
        sample = Sample(label, seconds, before, after)
        if self.ops:
            self.ops[-1].append(sample)
        return result, sample

    def _ref(self, s: Sample, exponent: Optional[float] = None) -> float:
        return self.meter.ref_cost(s.seconds, s.before, s.after, exponent)

    def op_refs(self, exponent: Optional[float] = None) -> List[float]:
        return [sum(self._ref(s, exponent) for s in op) for op in self.ops]

    def op_seconds(self) -> List[float]:
        return [sum(s.seconds for s in op) for op in self.ops]

    def by_label(self) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for op in self.ops:
            for s in op:
                out.setdefault(s.label, []).append(self._ref(s))
        return out


def untimed(label: str, call: Callable[[], object]):
    """The ``timed`` callback of the counting passes: no clock, no tick."""
    return call(), Sample(label, 0.0, 0, 0)


def git_revision() -> str:
    """HEAD's commit, read from ``.git`` without starting a process."""
    head = REPO / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            text = (REPO / ".git" / text[5:]).read_text().strip()
        return text[:12]
    except OSError:
        return "none"


def environment(args, tick, tick_ms: float) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes_hash": spec.sizes_hash(args.workload, args.scale),
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git": git_revision(),
        "tick_ms": round(tick_ms, 3),
        "tick_digest": tick.digest(),
    }


def trim_heap() -> None:
    """Hand the heap's freed pages back to the system (glibc only).

    What the previous set-up freed otherwise stays resident, and how much of
    it the next set-up can reuse depends on the heap's history: the same seed
    then peaks at 392 or at 424 MB on tiered_batches.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def measure_setup(cls, seed: int, scale: str, repeats: int, tick):
    """Set up ``repeats`` times from nothing; keep the last, time them all.

    Two ticks stand on either side of every set-up (the pair after one is the
    pair before the next).  Returns the workload, the raw seconds and the
    seconds read back to a quiet minute: set-up time followed the VM's slow
    spells like everything else and its medians sat 32 % apart between two
    occasions (README rule 4).
    """
    from ref import slowdown

    workload, raw = None, []
    pairs = [[tick(), tick()]]
    for _ in range(repeats):
        workload = None
        gc.collect()
        trim_heap()
        t0 = time.perf_counter()
        workload = cls(seed, scale)
        workload.setup()
        raw.append(time.perf_counter() - t0)
        pairs.append([tick(), tick()])
    quiet = [
        seconds / slowdown(statistics.median(before + after), spec.SETUP_TICK_EXPONENT)
        for seconds, before, after in zip(raw, pairs, pairs[1:])
    ]
    return workload, raw, quiet


def end_to_end_run(workload, timer: OpTimer, tally, seconds: float) -> None:
    """The measured loop: the fixed operations, then whatever fits in ``seconds``."""
    fixed = workload.sizes["fixed_ops"]
    start = time.perf_counter()
    index = 0
    while index < fixed or time.perf_counter() - start < seconds:
        timer.begin_op()
        outcome = workload.run_op(index, timer.timed)
        workload.observe(outcome, tally, fixed=index < fixed)
        index += 1


def host_views(workload, timer: OpTimer, meter) -> Dict[str, float]:
    """Raw-seconds views of the measured operations, for people."""
    from workloads import percentile

    seconds = timer.op_seconds()
    items = workload.sizes["items_per_op"]
    return {
        "host.items_per_s": items / statistics.median(seconds),
        "host.op_ms_p50": 1e3 * percentile(seconds, 50),
        "host.op_ms_p90": 1e3 * percentile(seconds, 90),
        "host.op_samples": len(seconds),
        "host.ref_tick_ms": meter.tick_ms(),
        "host.ref_tick_spread": meter.tick_spread(),
    }


def host_cost_ref(workload, timer: OpTimer, exponent: Optional[float] = None) -> float:
    """Median over operations of tick-normalised cost, per 1000 work items.

    ``exponent`` overrides the workload's own (the meter's), for the
    ``seconds / tick`` reading that ``--check-spread`` prints beside it.
    """
    per_kitem = workload.sizes["items_per_op"] / 1000.0
    return statistics.median(timer.op_refs(exponent)) / per_kitem


def same_outcome(a, b) -> bool:
    """Did the traced and the plain execution of one call return the same?"""
    if hasattr(a, "adjacency_array"):
        return a.entry_point == b.entry_point and bool(
            (a.adjacency_array == b.adjacency_array).all()
        )
    return a == b


class PairTimer:
    """The ``timed`` callback of a traced run: every call twice, back to back.

    One execution is plain, one runs with the span wrappers installed as a
    root span; which goes first alternates from call to call, and state the
    call changes is put back in between.  Pairing whole operations instead
    leaves seconds between the two sides, and on this VM that reads the
    host's mood, not the tracing.
    """

    def __init__(self, meter, tracer, workload, tally) -> None:
        self.plain, self.traced = OpTimer(meter), OpTimer(meter, wrap=tracer.root)
        self.tracer, self.workload, self.tally = tracer, workload, tally
        self.index = 0
        self.traced_first = False

    def begin_op(self, index: int) -> None:
        self.index = index
        self.plain.begin_op()
        self.traced.begin_op()

    def _traced(self, label: str, call: Callable[[], object]):
        self.tracer.install(self.index)
        try:
            return self.traced.timed(label, call)
        finally:
            self.tracer.uninstall()

    def timed(self, label: str, call: Callable[[], object]):
        state = self.workload.snapshot()
        traced_first, self.traced_first = self.traced_first, not self.traced_first
        if traced_first:
            traced = self._traced(label, call)
            self.workload.restore(state)
        plain = self.plain.timed(label, call)
        if not traced_first:
            self.workload.restore(state)
            traced = self._traced(label, call)
        self.tally.add(1, not same_outcome(plain[0], traced[0]), f"tracing changed {label}")
        return plain

    def overhead_share(self) -> float:
        """Traced over plain cost, minus one: the median over call pairs.

        Each pair's ratio is of tick-normalised costs and weighs as many
        seconds as its plain side took.  A burst that doubles one call moves
        a ratio of sums by whole percents; it does not move a median.
        """
        pairs = sorted(
            (self.traced._ref(t) / self.plain._ref(p), p.seconds)
            for plain_op, traced_op in zip(self.plain.ops, self.traced.ops)
            for p, t in zip(plain_op, traced_op)
        )
        half = sum(weight for _, weight in pairs) / 2.0
        for ratio, weight in pairs:
            half -= weight
            if half <= 0.0:
                return ratio - 1.0
        raise ValueError("no timed call was paired")


def traced_run(workload, meter, tally, seconds: float, trace_out: Optional[str]):
    """Every timed call both ways, then the counting passes.

    The first ``trace_ops`` operations feed the modeled and count metrics;
    more follow until ``seconds`` have passed, for the host shares and the
    overhead estimate only.  Returns the per-layer metrics and, for
    ``--check-repeat`` to hold against an untraced run, what the same
    operations read on the end-to-end side.
    """
    import tracemalloc

    # Imported here only: the untraced path never loads the tracer.
    from trace import DETAIL_EVERY, DETAILED, ROUND_SPANS, SEARCH, Tracer

    tracer = Tracer()
    pairs = PairTimer(meter, tracer, workload, tally)
    plain = pairs.plain
    ops = workload.sizes["trace_ops"]

    start = time.perf_counter()
    index = 0
    c: Dict[str, int] = {}
    while index < ops or time.perf_counter() - start < seconds:
        pairs.begin_op(index)
        workload.observe(workload.run_op(index, pairs.timed), tally, fixed=index < ops)
        index += 1
        if index == ops:
            c = dict(tracer.counts)

    analysis = tracer.analyse()
    if trace_out:
        tracer.write_chrome_trace(trace_out)
    metrics = {name: 0.0 for name in spec.PER_LAYER}
    metrics.update(tracer.shares(analysis))
    round_calls = sum(1 for name, _, _, _, op, _ in tracer.spans if op < ops and name in ROUND_SPANS)
    metrics.update(
        {
            "core.rounds": c["search.rounds"],
            "core.iterations": c["search.iterations"],
            "core.distance_computations": c["search.distance_computations"],
            "core.visited_inserts": c["search.visited_inserts"],
            "core.useful_distance_share": c["search.visited_inserts"]
            / max(1, c["search.distance_computations"]),
            "core.lane_active_share": c["search.iterations"] / max(1, c["search.lane_rounds"]),
            "distances.batch_many_calls": c["batch_many.calls"],
            "distances.rows_scored": c["batch_many.rows"],
            # Every lane also scores its entry point once.
            "distances.useful_row_share": (c["search.distance_computations"] + c["search.lanes"])
            / max(1, c["batch_many.rows_in_search"]),
            # Counted in the detailed searches only, one in DETAIL_EVERY.
            "structures.calls": DETAIL_EVERY * round_calls,
        }
    )
    if "tiered.run_batch" in analysis["calls"]:
        # Inclusive, so it overlaps the core/distances/structures shares.
        metrics["tiered.traverse_share"] = sum(
            analysis["inclusive"].get(name, 0.0) for name in (SEARCH, DETAILED)
        ) / analysis["root_total"]
    metrics.update(workload.layers(plain.by_label()))
    metrics.update(host_views(workload, plain, meter))
    metrics["trace.overhead_share"] = pairs.overhead_share()
    untraced = {"recall_at_10": workload.recall(), **workload.modeled()}

    # Counting passes, each from fresh state so it evolves as in the fixed run
    # (every metric above is already computed; the records are not needed).
    count_ops = workload.sizes.get("count_ops", ops)
    items = workload.sizes["items_per_op"]
    calls_seen = [0]

    def on_event(frame, event, arg):
        if event == "call" or event == "c_call":
            calls_seen[0] += 1

    workload.reset_records()
    gc.collect()
    sys.setprofile(on_event)
    try:
        for i in range(count_ops):
            workload.run_op(i, untimed)
    finally:
        sys.setprofile(None)
    metrics["host.py_calls_per_item"] = calls_seen[0] / (count_ops * items)

    workload.reset_records()
    gc.collect()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        workload.run_op(0, untimed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    metrics["host.alloc_mb_per_op"] = (peak - base) / 2**20
    return metrics, untraced


def drive(args) -> int:
    """One workload, one process, one thread; the result object last."""
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    src = REPO / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"benchmarks/e2e: {src / 'repro'} is missing, nothing to measure", file=sys.stderr)
        return EXIT_UNUSABLE
    sys.path.insert(0, str(src))

    import resource

    import checks
    import workloads
    from ref import Meter, RefTick

    tick = RefTick()
    tick_ms = 1e3 * statistics.median(tick() for _ in range(5))
    print(json.dumps({"env": environment(args, tick, tick_ms)}), flush=True)

    cls = workloads.BY_NAME[args.workload]
    repeats = spec.sizes(args.workload, args.scale).get("setup_repeats", spec.SETUP_REPEATS)
    workload, setup_raw, setup_quiet = measure_setup(
        cls, args.seed, args.scale, 1 if args.trace else repeats, tick
    )

    meter = Meter(tick, workload.sizes["tick_exponent"])
    tally = checks.Tally()
    workload.warm_up(OpTimer(meter).timed, tally)
    workload.gate(tally)
    workload.reset_records()

    if args.trace:
        metrics, untraced = traced_run(workload, meter, tally, args.seconds, args.trace_out)
        extra = {"untraced": untraced}
        recall = untraced["recall_at_10"]
    else:
        timer = OpTimer(meter)
        end_to_end_run(workload, timer, tally, args.seconds)
        recall = workload.recall()
        metrics = {
            "setup_s": statistics.median(setup_quiet),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "recall_at_10": recall,
            "host_cost_ref": host_cost_ref(workload, timer),
            **workload.modeled(),
        }
        extra = host_views(workload, timer, meter)
        extra["host_cost_ref.exponent_1"] = host_cost_ref(workload, timer, exponent=1.0)
        extra["setup_s.raw"] = statistics.median(setup_raw)
    checks.recall_floor(recall, workload.sizes["recall_floor"], tally)

    for name, value in metrics.items():
        print(f"{name:38s} {value:>16.6f} {spec.UNIT[name]:12s} {spec.CLOCK[name]}")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    print(json.dumps({"extra": extra}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": spec.UNIT[name]} for name, value in metrics.items()
        },
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"result": result, "extra": extra, "reasons": tally.reasons}, fh, indent=1)
    print(json.dumps(result, allow_nan=False), flush=True)
    return EXIT_OK if tally.failed == 0 else EXIT_FAILED


# ---------------------------------------------------------------------------
# modes for people: each run is a child process, one at a time
# ---------------------------------------------------------------------------


def run_child(workload: str, seed: int, trace: int, scale: str, seconds: int) -> dict:
    """One driver-mode run in a child; the child is waited for on every path."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", scale,
    ]  # fmt: skip
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode == EXIT_UNUSABLE or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    return {
        "returncode": proc.returncode,
        "env": json.loads(lines[0])["env"],
        "extra": json.loads(lines[-2])["extra"],
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "values": {name: m["value"] for name, m in result["metrics"].items()},
        "failures": [line for line in lines if line.startswith("FAILED ")],
    }


def smoke(args) -> int:
    """All four workloads at smoke size, one child each."""
    status = EXIT_OK
    started = time.perf_counter()
    for workload in spec.WORKLOADS:
        t0 = time.perf_counter()
        run = run_child(workload, args.seed, args.trace, "smoke", seconds=1)
        print(
            f"{workload:16s} trace={args.trace} correct={run['correct']} "
            f"failed={run['failed']}/{run['attempted']} metrics={len(run['values'])} "
            f"{time.perf_counter() - t0:.1f}s"
        )
        for line in run["failures"]:
            print("  " + line)
        for name, value in run["values"].items():
            print(f"  {name:38s} {value:>16.6f} {spec.UNIT[name]:12s} {spec.CLOCK[name]}")
        if run["returncode"] != EXIT_OK:
            status = EXIT_FAILED
    print(f"smoke: {'ok' if status == EXIT_OK else 'FAILED'} in {time.perf_counter() - started:.1f}s")
    return status


def allowed_difference(name: str) -> Optional[float]:
    """How far two runs of one seed may differ (relative); ``None`` = not judged."""
    clock = spec.CLOCK[name]
    if clock in ("modeled", "count"):
        return spec.NEAR_EXACT.get(name, 0.0)
    return spec.BOUND.get(name)


def judge_repeat(name: str, a: float, b: float) -> Tuple[str, str, str]:
    """``(differ by, allowed, verdict)`` for two runs of one seed."""
    differ = abs(a - b) / abs(a) if a else abs(b)
    allowed = allowed_difference(name)
    if name in ("trace.overhead_share", "trace.unattributed_share"):
        # Not a difference: the share must stay under 5 %.  One run's overhead
        # estimate rests on as few as 4 call pairs (build_index) and reads the
        # VM's mood to +-8 % there, so the two readings are pooled and judged once.
        pooled = (a + b) / 2.0
        return f"pooled {pooled:+.4f}", "< 0.05", "ok" if pooled < 0.05 else "FAIL"
    if allowed is None:
        return f"{differ:.2e}", "-", "info"
    if allowed == 0.0:
        return f"{differ:.2e}", "0", "identical" if a == b else "FAIL"
    return f"{differ:.2e}", f"{allowed:g}", "ok" if differ <= allowed else "FAIL"


def check_repeat(args) -> int:
    """Every workload twice per seed, both trace settings; one row per metric."""
    status = EXIT_OK
    print("| workload | seed | metric | clock | first | second | differ by | allowed | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")

    def row(workload, seed, label, clock, a, b, differ, allowed, verdict) -> None:
        nonlocal status
        if verdict == "FAIL":
            status = EXIT_FAILED
        print(
            f"| {workload} | {seed} | {label} | {clock} | {a:.6g} | {b:.6g} | {differ} "
            f"| {allowed} | {verdict} |",
            flush=True,
        )

    for workload in spec.WORKLOADS:
        sizes = spec.sizes(workload, args.scale)
        for seed in args.seeds:
            untraced: Dict[str, float] = {}
            for trace in (0, 1):
                first = run_child(workload, seed, trace, args.scale, args.seconds)
                second = run_child(workload, seed, trace, args.scale, args.seconds)
                if not (first["correct"] and second["correct"]):
                    status = EXIT_FAILED
                for name, a in first["values"].items():
                    b = second["values"][name]
                    row(workload, seed, name, spec.CLOCK[name], a, b, *judge_repeat(name, a, b))
                if trace == 0:
                    untraced = first["values"]
                elif sizes["trace_ops"] == sizes["fixed_ops"]:
                    # Same operations, traced: tracing must not change a result.
                    for name, b in first["extra"]["untraced"].items():
                        a = untraced[name]
                        verdict = "identical" if a == b else "FAIL"
                        row(workload, seed, f"{name} (untraced / in traced run)",
                            spec.CLOCK[name], a, b, f"{abs(a - b):.2e}", "0", verdict)  # fmt: skip
    print(f"check-repeat: {'ok' if status == EXIT_OK else 'FAILED'}")
    return status


def check_spread(args) -> int:
    """Ten seeds per workload; a spread is (Q3 - Q1) / median, as the driver takes it."""
    from statistics import median

    status = EXIT_OK
    print("| workload | metric | clock | median | IQR / median | bound | verdict |")
    print("|---|---|---|---|---|---|---|")
    for workload in spec.WORKLOADS:
        started = time.perf_counter()
        runs = [run_child(workload, seed, 0, args.scale, args.seconds) for seed in args.seeds]
        per_run = (time.perf_counter() - started) / len(runs)
        if not all(r["correct"] for r in runs):
            status = EXIT_FAILED
        for name in spec.END_TO_END:
            clock, bound = spec.CLOCK[name], spec.BOUND[name]
            values = [r["values"][name] for r in runs]
            s = spec.spread(values)
            if name == "setup_s":
                raw = spec.spread([r["extra"]["setup_s.raw"] for r in runs])
                verdict = f"not judged; raw seconds spread {raw:.4f}"
            elif s > bound:
                verdict, status = "FAIL", EXIT_FAILED
            else:
                verdict = "ok" if s <= bound / 3 else "warn (> bound / 3)"
            if name == "host_cost_ref":
                raw = spec.spread([r["extra"]["host.items_per_s"] for r in runs])
                plain = spec.spread([r["extra"]["host_cost_ref.exponent_1"] for r in runs])
                verdict += f"; raw host.items_per_s spreads {raw:.4f}, seconds / tick {plain:.4f}"
            print(
                f"| {workload} | {name} | {clock} | {median(values):.6g} | {s:.4f} | {bound:g} "
                f"| {verdict} |",
                flush=True,
            )
        print(f"| {workload} | (seconds per run) | host | {per_run:.1f} | | | |", flush=True)
    print(f"check-spread: {'ok' if status == EXIT_OK else 'FAILED'}")
    return status


# ---------------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    p.add_argument("--out", help="also write the result, extras and failure reasons here")
    p.add_argument("--trace-out", help="with --trace 1: write Chrome-trace JSON here")
    p.add_argument("--smoke", action="store_true", help="all workloads at n=2000, one child each")
    p.add_argument("--check-repeat", action="store_true")
    p.add_argument("--check-spread", action="store_true")
    p.add_argument("--seeds", help="comma-separated seeds for the check modes")
    args = p.parse_args(argv)
    default_seeds = SPREAD_SEEDS if args.check_spread else REPEAT_SEEDS
    args.seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else list(default_seeds)
    if not (args.smoke or args.check_repeat or args.check_spread) and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.smoke:
        return smoke(args)
    if args.check_repeat:
        return check_repeat(args)
    if args.check_spread:
        return check_spread(args)
    return drive(args)


if __name__ == "__main__":
    sys.exit(main())

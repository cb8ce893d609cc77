"""Self-tests of the benchmark harness (not of ``repro``).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``; tier-1 does not
collect this file (``testpaths = ["tests"]``).  The smoke-sized runs are made
once per session, in child processes, as the driver would make them.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(HERE))

import ref  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="session")
def smoke_runs():
    """``{(workload, trace): run}`` for every workload at smoke size, two seeds."""
    runs = {}
    for i, workload in enumerate(spec.WORKLOADS):
        for trace in (0, 1):
            runs[workload, trace] = run.run_child(workload, 7 + 1000 * i, trace, "smoke", seconds=1)
    return runs


# -- the contract file ---------------------------------------------------------


def test_benchmark_json_is_inside_the_contract_limits():
    b = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(b) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(b["workloads"]) <= 8
    assert 1 <= len(b["end_to_end"]) <= 16
    assert 1 <= len(b["per_layer"]) <= 128
    assert 1 <= b["run_seconds"] <= 60 and isinstance(b["run_seconds"], int)
    assert b["paths"] == ["benchmarks/e2e"] and len(b["command"]) <= 32
    names = [x["name"] for x in b["workloads"] + b["end_to_end"] + b["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in b["end_to_end"] + b["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in b["workloads"])
    assert all(set(w) == {"name", "why"} for w in b["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in b["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in b["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in b["end_to_end"])
    setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert len(json.dumps(b)) < 64 * 1024
    # What the contract has no key for: every metric has a clock, every workload sizes.
    assert set(spec.CLOCK) == set(spec.END_TO_END + spec.PER_LAYER)
    assert all(spec.sizes(w, scale) for w in spec.WORKLOADS for scale in ("full", "smoke"))
    assert set(spec.TICK_EXPONENT) == set(spec.WORKLOADS)


def test_run_prints_exactly_the_metrics_the_contract_names(smoke_runs):
    end_to_end, per_layer = set(spec.END_TO_END), set(spec.PER_LAYER)
    for (workload, trace), result in smoke_runs.items():
        assert result["returncode"] == 0 and result["correct"], (workload, trace, result["failures"])
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["values"]) == (per_layer if trace else end_to_end), (workload, trace)
        assert result["env"]["threads"] == {v: "1" for v in run.THREAD_VARS}
    for workload in spec.WORKLOADS:
        values = smoke_runs[workload, 0]["values"]
        assert all(v > 0 for v in values.values()), (workload, values)


def test_no_result_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__", "out"))
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "offline_search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout and '"metrics"' not in proc.stdout
    assert "src/repro" in proc.stderr.replace("\\", "/")


# -- the reference tick ----------------------------------------------------------


def test_tick_inputs_do_not_depend_on_the_seed(smoke_runs):
    digests = {r["env"]["tick_digest"] for r in smoke_runs.values()}
    seeds = {r["env"]["seed"] for r in smoke_runs.values()}
    assert len(seeds) > 1
    assert digests == {ref.RefTick().digest()}


def _spin(iterations: int) -> int:
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return acc


def _slowed(fn, factor: float):
    """``fn`` followed by a busy wait that stretches it by ``factor``."""

    def slow():
        t0 = time.perf_counter()
        out = fn()
        stop = t0 + factor * (time.perf_counter() - t0)
        while time.perf_counter() < stop:
            pass
        return out

    return slow


def _timed_tick(work):
    def tick() -> float:
        t0 = time.perf_counter()
        work()
        return time.perf_counter() - t0

    return tick


class _Synthetic:
    sizes = {"items_per_op": 1000}


def _cost(op, tick, ops: int = 40, exponent: float = 1.0) -> float:
    timer = run.OpTimer(ref.Meter(tick, exponent))
    for _ in range(ops):
        timer.begin_op()
        timer.timed("op", op)
    return run.host_cost_ref(_Synthetic, timer)


def test_host_cost_ref_follows_the_work_and_not_the_host():
    tick_work = lambda: _spin(20_000)  # noqa: E731
    base = _cost(lambda: _spin(100_000), _timed_tick(tick_work))
    doubled = _cost(lambda: _spin(200_000), _timed_tick(tick_work))
    assert doubled / base == pytest.approx(2.0, rel=0.10)
    # Operation and tick slowed together by an injected busy factor.
    slowed = _cost(_slowed(lambda: _spin(100_000), 1.6), _timed_tick(_slowed(tick_work, 1.6)))
    assert slowed / base == pytest.approx(1.0, rel=0.10)
    # The unit is the tick: 100k iterations cost five 20k-iteration ticks.
    assert base == pytest.approx(5.0, rel=0.25)
    # A workload that a slow spell stretches by f ** 0.5 where it stretches the tick by f.
    quiet = _cost(lambda: _spin(100_000), _timed_tick(tick_work), exponent=0.5)
    spell = _cost(
        _slowed(lambda: _spin(100_000), 1.6**0.5), _timed_tick(_slowed(tick_work, 1.6)), exponent=0.5
    )
    assert spell / quiet == pytest.approx(1.0, rel=0.10)


def test_setup_seconds_are_read_back_to_a_quiet_minute():
    from statistics import median

    def setup_class(work):
        return type("Fake", (), {"__init__": lambda self, seed, scale: None, "setup": lambda self: work()})

    tick_work = lambda: _spin(20_000)  # noqa: E731
    work = lambda: _spin(200_000)  # noqa: E731
    stretch = 1.6**spec.SETUP_TICK_EXPONENT
    _, raw, quiet = run.measure_setup(setup_class(work), 1, "smoke", 7, _timed_tick(tick_work))
    _, raw_spell, quiet_spell = run.measure_setup(
        setup_class(_slowed(work, stretch)), 1, "smoke", 7, _timed_tick(_slowed(tick_work, 1.6))
    )
    assert median(raw_spell) / median(raw) == pytest.approx(stretch, rel=0.10)
    assert median(quiet_spell) / median(quiet) == pytest.approx(1.0, rel=0.10)


def test_real_tick_is_about_ten_milliseconds():
    tick = ref.RefTick()
    readings = sorted(tick() for _ in range(9))
    assert 0.003 < readings[4] < 0.040


# -- serve_loadtest's backlog test --------------------------------------------------


def _served_point(rate: float, capacity: float, requests: int = 500, batch: int = 8) -> dict:
    """Evenly spaced arrivals into a server that takes ``batch / capacity`` s a batch."""
    from types import SimpleNamespace

    due = [(i + 1) / rate for i in range(requests)]
    responses, free_at = [], 0.0
    for first in range(0, requests, batch):
        members = due[first : first + batch]
        free_at = max(free_at, members[-1]) + len(members) / capacity
        responses += [SimpleNamespace(ok=True, latency_s=free_at - d) for d in members]
    return {"due_s": due, "responses": responses}


def test_a_rate_the_server_cannot_keep_up_with_is_not_in_slo():
    sys.path.insert(0, str(REPO / "src"))
    from workloads import ServeLoadtest

    keeps_up = [_served_point(20_000, 200_000) for _ in range(4)]
    falls_behind = [_served_point(400_000, 200_000, batch=64) for _ in range(4)]
    assert not ServeLoadtest.backlog_grows(keeps_up)
    # Leaves at half the offered rate, and every latency is still under 2 ms.
    assert max(r.latency_s for p in falls_behind for r in p["responses"]) < 0.002
    assert ServeLoadtest.backlog_grows(falls_behind)
    assert not ServeLoadtest.backlog_grows([_served_point(150_000, 200_000, batch=32)])


# -- tracing ---------------------------------------------------------------------


def test_trace_shares_partition_the_traced_time(smoke_runs):
    for workload in spec.WORKLOADS:
        values = smoke_runs[workload, 1]["values"]
        shares = [values[name] for name in spec.SELF_SHARES]
        assert all(0.0 <= s <= 1.0 for s in shares)
        assert sum(shares) == pytest.approx(1.0, abs=0.02), workload
        assert values["trace.unattributed_share"] < 0.05
    # A layer a workload never enters reads 0, the ones it lives in do not.
    offline = smoke_runs["offline_search", 1]["values"]
    assert offline["serve.loop_self_share"] == 0 and offline["graphs.build_self_share"] == 0
    assert offline["core.search_self_share"] > 0.2 and offline["distances.batch_many_share"] > 0.1
    assert smoke_runs["serve_loadtest", 1]["values"]["serve.loop_self_share"] > 0
    assert smoke_runs["tiered_batches", 1]["values"]["tiered.rerank_self_share"] > 0
    assert smoke_runs["build_index", 1]["values"]["graphs.build_self_share"] > 0.2


def test_traced_run_reads_the_same_modeled_values_as_an_untraced_one(smoke_runs):
    for workload in spec.WORKLOADS:
        sizes = spec.sizes(workload, "smoke")
        if sizes["trace_ops"] != sizes["fixed_ops"]:
            continue
        untraced = smoke_runs[workload, 1]["extra"]["untraced"]
        for name, value in untraced.items():
            assert value == smoke_runs[workload, 0]["values"][name], (workload, name)


def test_chrome_trace_spans_nest(tmp_path):
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiered_batches", "--seed", "3",
         "--seconds", "1", "--trace", "1", "--scale", "smoke", "--trace-out", str(out)],
        capture_output=True, text=True, timeout=180,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout[-2000:]
    events = json.loads(out.read_text())["traceEvents"]
    names = {e["name"] for e in events}
    assert names >= {"op", "tiered.run_batch", "core.search_batch", "core.search_batch+"}
    assert names >= {"structures.frontier_merge", "structures.pack_keys", "distances.batch_many"}
    for e in events:
        parent = e["args"]["parent"]
        if e["name"] == "op":
            assert parent == -1 and e["args"]["depth"] == 0
            continue
        p = events[parent]
        assert p["args"]["depth"] == e["args"]["depth"] - 1
        assert p["ts"] - 0.5 <= e["ts"] and e["ts"] + e["dur"] <= p["ts"] + p["dur"] + 0.5

"""Mutant catalogues for the instruction-level, serving and array-kernel
layers (outside tier-1).

Seeds one bug at a time into a *copy* of the source tree and records
which checkers fail on it.  Three catalogues, one table each:

* **microkernels** — bugs in ``simt/kernels.py`` and the cost constants
  they are checked against; checkers are the ``sanitizer`` and
  ``verifier`` engines (``python -m repro.analysis --engines NAME
  --strict``) and the tests that exercise the microkernels (``TESTS``
  below) plus ``benchmarks/bench_ablation_cost_model.py``;
* **serving** — bugs in ``serve/``'s coroutines, locks and clocks;
  checkers are the ``aio`` engine (parent only), the ``lint`` engine
  (its nondeterminism sweep scans ``serve/``), ``arrays`` (parent only)
  and the serving test files (``SERVE_TESTS``);
* **array kernels** — bugs in the vectorized host kernels (packed keys,
  flat indices, tie-breaking) and the guards in front of them; checkers
  are the ``arrays`` engine (parent only), ``lint`` and the test files
  that exercise those kernels (``ARRAY_TESTS``).

Each catalogue mutates two trees: the working tree and the commit before
the checker it judges was deleted (``PARENT`` for the static kernel
verifier, ``SERVE_PARENT`` for the ``aio`` engine, ``ARRAYS_PARENT`` for
the ``arrays`` engine, exported with ``git archive``), so each row names
its catchers before and after that deletion.  A mutant whose source
snippet no longer matches as often as declared aborts the run instead of
silently testing nothing.  The unmutated tree must be clean on every
checker, or the run aborts too.  A run that outlives ``STEP_TIMEOUT_S``
is killed and recorded as a hang: a hang counts as caught only because
that bound turns it into a failure.

    python scripts/mutants.py                    # rewrite scripts/mutants.md
    python scripts/mutants.py --out table.md     # write the tables elsewhere

About thirty minutes on a 2-vCPU VM: the six trees run two at a time,
one subprocess at a time each, every subprocess capped at 120 s and
2 GiB of address space.  The repository itself is never written to,
apart from ``--out``.
"""

from __future__ import annotations

import argparse
import functools
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
from typing import Dict, List, Optional, Sequence, Tuple

REPO = Path(__file__).resolve().parent.parent

#: The commit the deletion of the static kernel verifier is measured
#: against (its parent); the kernel table's labels describe this commit.
PARENT = "9f817304b82709f1e9b6b0044cece77474f49d88"

#: The commit the deletion of the ``aio`` engine is measured against.
SERVE_PARENT = "e80d0eacfed3b4310466b002fe371534c8d4344b"

#: The commit the deletion of the ``arrays`` engine is measured against.
ARRAYS_PARENT = "5bc8260c55e02b3c7fd62879ddc04f38fb4cc94d"

TESTS = [
    "tests/test_model_drift.py",
    "tests/test_simt_kernels.py",
    "tests/test_isa_simulator.py",
    "tests/test_ir_heap_cosine.py",
    "tests/test_warp_probe.py",
    "benchmarks/bench_ablation_cost_model.py",
]

#: Serving test files; a file absent from a tree is skipped there.
SERVE_TESTS = [
    "tests/test_batcher_deadline.py",
    "tests/test_serve_clock.py",
    "tests/test_serve_components.py",
    "tests/test_serve_faults.py",
    "tests/test_serve_golden.py",
    "tests/test_serve_regressions.py",
    "tests/test_serve_router.py",
    "tests/test_serve_server.py",
    "tests/test_serve_streams.py",
    "tests/test_tiered_serve.py",
]

#: Test files that exercise the vectorized host kernels and their guards.
ARRAY_TESTS = [
    "tests/test_batched_engine.py",
    "tests/test_build_paths.py",
    "tests/test_cagra.py",
    "tests/test_dpg_ivfflat.py",
    "tests/test_graph_quality.py",
    "tests/test_graph_storage.py",
    "tests/test_hashing.py",
    "tests/test_hnsw.py",
    "tests/test_knn_graphs.py",
    "tests/test_nsg.py",
    "tests/test_tiered.py",
]

#: Directories a checker run needs from a tree.
COPIED = ("src", "tests", "benchmarks", "scripts")

STEP_TIMEOUT_S = 120
STEP_MEMORY_BYTES = 2 << 30

KERNELS = "src/repro/simt/kernels.py"
BATCHER = "src/repro/serve/batcher.py"
ROUTER = "src/repro/serve/router.py"
SERVER = "src/repro/serve/server.py"
LOADGEN = "src/repro/serve/loadgen.py"
CAGRA = "src/repro/graphs/cagra.py"
BATCHED = "src/repro/core/batched.py"
SOA = "src/repro/structures/soa.py"


@dataclass(frozen=True)
class Mutant:
    """Replace ``old`` by ``new`` in ``path``, within the text that starts
    at ``scope`` and runs to the next top-level ``def`` (or the whole
    file when ``scope`` is empty); ``old`` must occur ``count`` times.
    ``header`` is inserted after the module's ``__future__`` import;
    ``pinned_by`` names the tests written to fail on the mutant."""

    mid: str
    title: str
    path: str
    old: str
    new: str
    scope: str = ""
    count: int = 1
    header: str = ""
    pinned_by: Tuple[str, ...] = ()


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

SERVE_MUTANTS = [
    Mutant(
        "S1", "no device lock on a one-stream replica", ROUTER,
        """                async with self._device_lock:
                    outcome = self.engine.run_batch(queries, config)
                    await asyncio.sleep(outcome.service_seconds)
""",
        """                outcome = self.engine.run_batch(queries, config)
                await asyncio.sleep(outcome.service_seconds)
""",
    ),
    Mutant(
        "S2", "dispatch task not tracked in `_inflight`", BATCHER,
        "            self._inflight[task] = None\n", "",
        pinned_by=("test_stop_with_a_full_queue_resolves_everything_first",),
    ),
    Mutant(
        "S3", "batcher slot released outside `finally`", BATCHER,
        """        try:
            await self._dispatch(batch)
        finally:
            self._slot_semaphore().release()
""",
        """        await self._dispatch(batch)
        self._slot_semaphore().release()
""",
        pinned_by=("test_raising_dispatch_returns_its_slot",),
    ),
    Mutant(
        "S4", "`admission.release_slot()` dropped (a `block` queue slot "
        "never comes back)", SERVER,
        "        for _ in batch:\n            self.admission.release_slot()\n",
        "",
        pinned_by=("test_block_policy_returns_every_queue_slot",),
    ),
    Mutant(
        "S5", "arrival stamped with `time.monotonic()`", SERVER,
        "            arrival_s=loop.time(),\n",
        "            arrival_s=time.monotonic(),\n",
        header="import time\n",
    ),
    Mutant(
        "S6", "plain `asyncio.gather` in `DynamicBatcher.drain`", BATCHER,
        "            await gather_all(*tuple(self._inflight))",
        "            await asyncio.gather(*tuple(self._inflight))",
        scope="    async def drain",
        pinned_by=("test_drain_waits_for_every_dispatch_before_raising",),
    ),
    Mutant(
        "S7", "seed-405 guard back to `timeout > 0`", BATCHER,
        "if timeout > loop._clock_resolution:", "if timeout > 0:",
    ),
    Mutant(
        "S8", "`pending_batches -= 1` moved out of `finally`", ROUTER,
        """        self.pending_batches += 1
        try:
            if self.streams <= 1:
                async with self._device_lock:
                    outcome = self.engine.run_batch(queries, config)
                    await asyncio.sleep(outcome.service_seconds)
            else:
                async with self._slots():
                    outcome = self._run_streamed(queries, config)
                    await asyncio.sleep(outcome.service_seconds)
        finally:
            self.pending_batches -= 1
""",
        """        self.pending_batches += 1
        if self.streams <= 1:
            async with self._device_lock:
                outcome = self.engine.run_batch(queries, config)
                await asyncio.sleep(outcome.service_seconds)
        else:
            async with self._slots():
                outcome = self._run_streamed(queries, config)
                await asyncio.sleep(outcome.service_seconds)
        self.pending_batches -= 1
""",
        pinned_by=("test_fault_leaves_no_load_and_both_replicas_in_use",),
    ),
    Mutant(
        "S9", "`stop()` does not await the run task", SERVER,
        "        await self._run_task\n        self._run_task = None\n",
        "        self._run_task = None\n",
        pinned_by=("test_stop_with_a_full_queue_resolves_everything_first",),
    ),
    Mutant(
        "S10", "the engine-fault path resolves no future", SERVER,
        """                self.metrics.on_error()
                request.resolve(
                    ServeResponse(
                        request_id=request.request_id,
                        status="error",
                        replica=replica.name,
                        error=error,
                    )
                )
""",
        "                self.metrics.on_error()\n",
    ),
    Mutant(
        "S11", "seedless RNG in `poisson_arrivals`", LOADGEN,
        "rng = np.random.default_rng(seed)", "rng = np.random.default_rng()",
    ),
    Mutant(
        "S12", "`drive_poisson` drops every 7th `create_task` handle", LOADGEN,
        "        tasks.append(asyncio.create_task(server.submit(queries[qi], "
        "ground_truth=gt)))\n",
        """        if i % 7 == 6:
            asyncio.create_task(server.submit(queries[qi], ground_truth=gt))
        else:
            tasks.append(asyncio.create_task(server.submit(queries[qi], ground_truth=gt)))
""",
    ),
    Mutant(
        "S13", "device lock released before the occupancy sleep", ROUTER,
        """                    outcome = self.engine.run_batch(queries, config)
                    await asyncio.sleep(outcome.service_seconds)
""",
        """                    outcome = self.engine.run_batch(queries, config)
                await asyncio.sleep(outcome.service_seconds)
""",
    ),
]

ARRAY_MUTANTS = [
    Mutant(
        "A0", "`_detour_walk`: int32 row offsets (`u * n` wraps past 2^31)",
        CAGRA,
        "    u = np.arange(b, dtype=np.int64)[:, None]\n",
        "    u = np.arange(b, dtype=np.int32)[:, None]\n",
        scope="def _detour_walk",
    ),
    Mutant(
        "A1", "`_ragged_arange`: int32 positions", "src/repro/graphs/nn_descent.py",
        "    idx = np.arange(total, dtype=np.int64)\n",
        "    idx = np.arange(total, dtype=np.int32)\n",
        scope="def _ragged_arange",
    ),
    Mutant(
        "A2", "`_vertex_major`: `(w * n + c)` narrowed to int32", CAGRA,
        "    wc = keys // p\n", "    wc = (keys // p).astype(np.int32)\n",
        scope="def _vertex_major",
    ),
    Mutant(
        "A3", "`_undirect`: backfill band offset `np.int32(n * keep)`",
        "src/repro/graphs/dpg.py",
        "np.int64(n * keep)", "np.int32(n * keep)",
        scope="def _undirect",
    ),
    Mutant(
        "A4", "`_unvisited`: reads `visited[base + cand + 1]`", BATCHED,
        "    return ~visited[base + cand]\n", "    return ~visited[base + cand + 1]\n",
        scope="def _unvisited",
    ),
    Mutant(
        "A5", "`_detour_walk`: `bincount` replaced by `out[key] += 1`", CAGRA,
        "    return np.bincount(key, minlength=b * k0).reshape(b, k0)\n",
        """    out = np.zeros(b * k0, dtype=np.int64)
    out[key] += 1
    return out.reshape(b, k0)
""",
        scope="def _detour_walk",
    ),
    Mutant(
        "A6", "`_first_occurrence_mask`: argsort without `kind=\"stable\"`",
        BATCHED,
        '    order = np.argsort(keyed, axis=1, kind="stable")\n',
        "    order = np.argsort(keyed, axis=1)\n",
        scope="def _first_occurrence_mask",
    ),
    Mutant(
        "A7", "`pack_keys`: distance shifted by 31, not 32", SOA,
        "(mapped.astype(np.uint64) << _SHIFT)",
        "(mapped.astype(np.uint64) << np.uint64(31))",
        scope="def pack_keys",
    ),
    Mutant(
        "A9", "`pack_rowid`'s `OverflowError` check dropped", SOA,
        """        if int(rows.min()) < 0 or int(rows.max()) > (_INT64_MAX - (n - 1)) // n:
            raise OverflowError("pack_rowid: row * n + id exceeds int64")
""",
        "",
        scope="def pack_rowid",
    ),
    Mutant(
        "A10", "CAGRA's `_MAX_POINTS` raised to 2^28", CAGRA,
        "_MAX_POINTS = 2**26\n", "_MAX_POINTS = 2**28\n",
    ),
    Mutant(
        "A11", "`(B, n)` visited bitmap: no PAD sentinel column, so PAD "
        "reads the previous lane's last vertex", BATCHED,
        """        self.stride = n + 1
        self.base = lanes[:, None] * self.stride
        self.visited = np.zeros(b * self.stride, dtype=bool)
        self.visited[n :: self.stride] = True
""",
        """        self.stride = n
        self.base = lanes[:, None] * self.stride
        self.visited = np.zeros(b * self.stride, dtype=bool)
""",
    ),
    Mutant(
        "A12", "CAGRA build drops `attach_orphans`", CAGRA,
        "        attach_orphans(adjacency, table, entry, self.data, self.metric)\n",
        "",
        scope="class CagraBuilder",
    ),
    Mutant(
        "A13", "`_detour_walk` leaves its rank marks set (stale detour mark)",
        CAGRA,
        "    pos[u, rows] = -1\n", "",
        scope="def _detour_walk",
    ),
]

#: Array-kernel mutants not run, and why they cannot change behaviour.
EQUIVALENT = [
    ("A8", "`_best_candidates`: target id routed through uint32",
     "every target is a vertex id below n < 2^31, so the uint32 round trip "
     "is the identity"),
]

CHECKERS = ("sanitizer", "verifier", "tests")

#: Serving checkers by tree; ``aio`` and ``arrays`` exist at the parent only.
SERVE_CHECKERS = {
    "parent": ("aio", "lint", "arrays", "tests"),
    "change": ("lint", "tests"),
}

#: Array-kernel checkers by tree; ``arrays`` exists at the parent only.
ARRAY_CHECKERS = {
    "parent": ("arrays", "lint", "tests"),
    "change": ("lint", "tests"),
}


@dataclass(frozen=True)
class Catalogue:
    """One table: mutants, the commit its ``parent`` columns are measured
    at, the checkers run on each tree and the test files ``tests`` runs."""

    commit: str
    mutants: Sequence[Mutant]
    checkers: Dict[str, Tuple[str, ...]]
    tests: Sequence[str]


CATALOGUES = {
    "kernels": Catalogue(
        PARENT, MUTANTS, {"parent": CHECKERS, "change": CHECKERS}, TESTS
    ),
    "serving": Catalogue(SERVE_PARENT, SERVE_MUTANTS, SERVE_CHECKERS, SERVE_TESTS),
    "arrays": Catalogue(ARRAYS_PARENT, ARRAY_MUTANTS, ARRAY_CHECKERS, ARRAY_TESTS),
}

#: ``stderr`` of a step killed at ``STEP_TIMEOUT_S``.
HUNG = "timeout"


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
        return subprocess.CompletedProcess(args, -1, "", HUNG)


def _crash(proc: subprocess.CompletedProcess) -> str:
    if proc.stderr == HUNG:
        return "hang"
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


def _tests(tree: Path, tests: Sequence[str]) -> Dict:
    """The verdict, the names of the failed test functions and the files
    that hung.  Each file runs in its own process, so a file that hangs
    is named and does not hide the failures of the others."""
    verdicts, failed, hung = [], set(), []
    for test in tests:
        if not (tree / test).exists():
            continue
        proc = _run(tree, ["-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
                           "--benchmark-disable", test])
        if proc.returncode == 0:
            continue
        nodes = re.findall(r"^FAILED \S+?::(\S+)", proc.stdout, flags=re.M)
        failed.update(node.split("::")[-1].split("[")[0] for node in nodes)
        if proc.stderr == HUNG:
            hung.append(test)
        what = str(len(nodes)) if nodes else _crash(proc)
        verdicts.append(f"{Path(test).stem} ({what})")
    return {
        "tests": ", ".join(sorted(verdicts)) or None,
        "failed": sorted(failed),
        "hung": hung,
    }


def _check(tree: Path, checkers: Sequence[str], tests: Sequence[str]) -> Dict:
    """Checker name -> verdict, plus ``_tests``' ``failed`` and ``hung``."""
    out: Dict = {}
    for checker in checkers:
        if checker == "tests":
            out.update(_tests(tree, tests))
        else:
            out[checker] = _engine(tree, checker)
    return out


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
    mutated = original[:start] + region.replace(mutant.old, mutant.new) + original[end:]
    if mutant.header:
        future = "from __future__ import annotations\n"
        if mutated.count(future) != 1:
            raise SystemExit(f"{mutant.mid}: no single __future__ import in {mutant.path}")
        mutated = mutated.replace(future, future + mutant.header)
    path.write_text(mutated)
    return path, original


def _copy_worktree(dest: Path, names: Sequence[str] = COPIED) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".cache", "results", "*.pyc")
    for name in names:
        if (REPO / name).is_dir():
            shutil.copytree(REPO / name, dest / name, ignore=ignore)
        else:
            dest.mkdir(parents=True, exist_ok=True)
            shutil.copy2(REPO / name, dest / name)


def _export_commit(dest: Path, commit: str, names: Sequence[str] = COPIED) -> None:
    blob = subprocess.run(
        ["git", "archive", "--format=tar", commit, *names], cwd=REPO,
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest)


def catalogue(tree: Path, name: str, label: str) -> Dict[str, Dict]:
    """Run every mutant of catalogue ``name`` on ``tree`` (restoring each
    file afterwards); ``label`` (``parent``/``change``) picks the checkers."""
    cat = CATALOGUES[name]
    checkers = cat.checkers[label]
    baseline = _check(tree, checkers, cat.tests)
    dirty = {k: v for k, v in baseline.items() if v}
    if dirty:
        raise SystemExit(f"{name}/{label}: unmutated tree is not clean: {dirty}")
    results = {}
    for mutant in cat.mutants:
        path, original = _apply(tree, mutant)
        try:
            results[mutant.mid] = _check(tree, checkers, cat.tests)
        finally:
            path.write_text(original)
        print(f"{name}/{label} {mutant.mid}: {results[mutant.mid]}", file=sys.stderr)
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


def _grid(mutants: Sequence[Mutant], results: Dict[str, Dict],
          checkers: Dict[str, Tuple[str, ...]]) -> List[str]:
    """Header and one row per mutant: parent's checkers, then change's."""
    pcols, ccols = checkers["parent"], checkers["change"]
    out = [
        "| id | mutant | " + " | ".join(f"parent: {k}" for k in pcols) + " | "
        + " | ".join(f"change: {k}" for k in ccols) + " |",
        "|---|---|" + "---|" * (len(pcols) + len(ccols)),
    ]
    for m in mutants:
        p, c = results["parent"][m.mid], results["change"][m.mid]
        cells = [_cell(p[k]) for k in pcols] + [_cell(c[k]) for k in ccols]
        out.append(f"| {m.mid} | {m.title} | " + " | ".join(cells) + " |")
    return out


def _caught(row: Dict, cols: Sequence[str]) -> List[str]:
    return [k for k in cols if row[k]]


def _ids(mutants: Sequence[Mutant], pred) -> str:
    return ", ".join(m.mid for m in mutants if pred(m)) or "none"


def render_serving(results: Dict[str, Dict]) -> str:
    parent, change = results["parent"], results["change"]
    pcols, ccols = SERVE_CHECKERS["parent"], SERVE_CHECKERS["change"]
    ids = functools.partial(_ids, SERVE_MUTANTS)
    out = [
        "# Mutant catalogue: the serving layer",
        "",
        "Generated by `python scripts/mutants.py` (do not edit by hand).",
        f"`parent` is commit `{SERVE_PARENT[:12]}`, which still has the `aio`",
        "static analyzer of `serve/`'s coroutines; `change` is the working",
        "tree, where `serve/` is checked by its tests and the `lint` engine",
        "(`arrays`, also parent only, swept `serve/` for nondeterminism).",
        "✓ = the checker fails on the mutant (with the rules it reported, or",
        "the failing test files and counts, each file run in its own",
        "process); `(hang)` = that file was still running at",
        f"{STEP_TIMEOUT_S} s and was killed, which is the only way a hang counts",
        "as caught (`scripts/ci.sh` bounds tier-1 with a timeout the same",
        "way); ✗ = it passes.",
        "`tests` = " + ", ".join(f"`{Path(t).name}`" for t in SERVE_TESTS)
        + "; a file the tree lacks is skipped.",
        "",
    ] + _grid(SERVE_MUTANTS, results, SERVE_CHECKERS)

    total = len(SERVE_MUTANTS)
    n_parent = sum(bool(_caught(parent[m.mid], pcols)) for m in SERVE_MUTANTS)
    n_change = sum(bool(_caught(change[m.mid], ccols)) for m in SERVE_MUTANTS)
    out += [
        "",
        "## Reading",
        "",
        f"- Caught by some checker: {n_parent} of {total} at the parent, "
        f"{n_change} of {total} at the change.",
        "- Caught at the parent by `aio`: "
        + ids(lambda m: parent[m.mid]["aio"]) + "; by `aio` alone: "
        + ids(lambda m: _caught(parent[m.mid], pcols) == ["aio"]) + ".",
        "- Caught at the parent by nothing: "
        + ids(lambda m: not _caught(parent[m.mid], pcols)) + ".",
        "- Caught at the parent by `aio` and by nothing at the change: "
        + ids(lambda m: parent[m.mid]["aio"] and not _caught(change[m.mid], ccols))
        + ".",
        "- Caught by nothing at the change: "
        + ids(lambda m: not _caught(change[m.mid], ccols)) + ".",
        "- Caught at the change only through a killed hang: "
        + ids(lambda m: _caught(change[m.mid], ccols) == ["tests"]
              and change[m.mid]["hung"] and not change[m.mid]["failed"]) + ".",
        "",
        "Tests written for a row, and whether they fail on it at the change:",
        "",
    ]
    for m in SERVE_MUTANTS:
        for test in m.pinned_by:
            verdict = "fails" if test in change[m.mid]["failed"] else "PASSES"
            out.append(f"- {m.mid}: `{test}` {verdict}.")
    return "\n".join(out) + "\n"


def render_arrays(results: Dict[str, Dict]) -> str:
    parent, change = results["parent"], results["change"]
    pcols, ccols = ARRAY_CHECKERS["parent"], ARRAY_CHECKERS["change"]
    ids = functools.partial(_ids, ARRAY_MUTANTS)
    out = [
        "# Mutant catalogue: the array kernels",
        "",
        "Generated by `python scripts/mutants.py` (do not edit by hand).",
        f"`parent` is commit `{ARRAYS_PARENT[:12]}`, which still has the `arrays`",
        "engine (an abstract interpreter over the `@array_kernel`-decorated",
        "host kernels, plus a nondeterminism sweep); `change` is the working",
        "tree, where the kernels are checked by their tests and the `lint`",
        "engine (`narrow-int` and the `nondet-*` rules).  ✓ = the checker",
        "fails on the mutant (with the rules it reported, or the failing test",
        "files and counts, each file run in its own process); ✗ = it passes.",
        "`tests` = " + ", ".join(f"`{Path(t).name}`" for t in ARRAY_TESTS) + ".",
        "",
    ] + _grid(ARRAY_MUTANTS, results, ARRAY_CHECKERS)
    for mid, title, _ in EQUIVALENT:
        out.append(f"| {mid} | {title} | " + " | ".join(["—"] * (len(pcols) + len(ccols)))
                   + " |")
    out += [""] + [f"{mid} is not run (equivalent): {why}." for mid, _, why in EQUIVALENT]

    total = len(ARRAY_MUTANTS)
    n_parent = sum(bool(_caught(parent[m.mid], pcols)) for m in ARRAY_MUTANTS)
    n_change = sum(bool(_caught(change[m.mid], ccols)) for m in ARRAY_MUTANTS)
    out += [
        "",
        "## Reading",
        "",
        f"- Caught by some checker: {n_parent} of {total} at the parent, "
        f"{n_change} of {total} at the change (equivalent rows not counted).",
        "- Caught at the parent by `arrays`: "
        + ids(lambda m: parent[m.mid]["arrays"]) + "; by `arrays` alone: "
        + ids(lambda m: _caught(parent[m.mid], pcols) == ["arrays"]) + ".",
        "- Caught at the parent by `arrays` and by nothing at the change: "
        + ids(lambda m: parent[m.mid]["arrays"] and not _caught(change[m.mid], ccols))
        + ".",
        "- Caught at the change by `narrow-int`: "
        + ids(lambda m: "narrow-int" in (change[m.mid]["lint"] or "")) + ".",
        "- Caught by nothing at the parent: "
        + ids(lambda m: not _caught(parent[m.mid], pcols)) + ".",
        "- Caught by nothing at the change: "
        + ids(lambda m: not _caught(change[m.mid], ccols)) + ".",
    ]
    return "\n".join(out) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=REPO / "scripts" / "mutants.md")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        jobs = {}
        for name, cat in CATALOGUES.items():
            for label in ("parent", "change"):
                tree = Path(tmp) / name / label
                if label == "parent":
                    _export_commit(tree, cat.commit)
                else:
                    _copy_worktree(tree)
                jobs[name, label] = tree
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = {key: pool.submit(catalogue, tree, *key)
                       for key, tree in jobs.items()}
            results = {key: f.result() for key, f in futures.items()}
    tables = {
        name: {label: results[name, label] for label in ("parent", "change")}
        for name in CATALOGUES
    }
    args.out.write_text(
        render(tables["kernels"]) + "\n" + render_serving(tables["serving"])
        + "\n" + render_arrays(tables["arrays"])
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

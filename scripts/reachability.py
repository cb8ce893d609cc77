"""Which functions of ``src/repro/`` does anything the repository promises call?

Every root below runs in a child Python whose ``sitecustomize`` installs a
``sys.setprofile`` / ``threading.setprofile`` hook on ``call`` events and, at
exit, writes each ``(file, qualified name)`` it saw under ``src/repro/``.
Children of a root (``run.py --smoke`` runs one process per workload) inherit
the hook through ``PYTHONPATH``.  Tier-1 then runs under the same hook.
A root that installs its own profile hook (``run.py --trace 1``'s call
count) blinds this one for that stretch; ``--trace 0`` runs the same code.

Every function defined under ``src/repro/`` that no root reaches goes into
``scripts/reachability.md`` with what does reach it (tier-1 or nothing) and
the reason it is kept.  Reasons are written by hand in the table's last
column and carried over when the table is regenerated; a row without one
fails the run.  ``analysis/`` is not listed: its engines are judged by
seeded mutants, not by callers.

    python scripts/reachability.py      # from the repository root, ~1 h

It empties ``benchmarks/.cache/`` first so that every builder runs.
"""

from __future__ import annotations

import glob
import inspect
import os
import shutil
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src", "repro") + os.sep
TABLE = os.path.join(REPO, "scripts", "reachability.md")
HEADER = "| module | function | reached by | kept because |"
PY = sys.executable
SMALL = ["--dataset", "sift", "--n", "300", "--queries", "16"]

HOOK = """import atexit, os, sys, threading
_seen = set()
def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)
sys.setprofile(_hook)
threading.setprofile(_hook)
@atexit.register
def _dump():
    sys.setprofile(None)
    names = {f"{c.co_filename}\\t{c.co_qualname}\\n" for c in _seen
             if c.co_filename.startswith(%r)}
    with open(os.path.join(os.path.dirname(__file__), f"{os.getpid()}.txt"), "w") as fh:
        fh.writelines(sorted(names))
"""


def roots(tmp: str) -> list:
    """The command lines the repository promises work."""
    sys.path.insert(0, os.path.join(REPO, "src"))
    from repro.core.config import GRAPH_TYPES

    graph = os.path.join(tmp, "graph.npz")
    cli = [["datasets"], ["devices"]]
    cli += [["build", *SMALL, "--graph", g, "--out", graph] for g in GRAPH_TYPES]
    cli += [["search", *SMALL, "--index", graph]]
    cli += [["search", *SMALL, "--engine", e] for e in ("sim", "serial", "batched")]
    cli += [["search", *SMALL, "--tier", t] for t in ("bits", "pq")]
    cli += [
        ["sweep", *SMALL, "--methods", "song", "batched", "hnsw", "ivfpq", "--grid", "10", "20",
         "--plot"],
        ["serve", *SMALL, "--requests", "48", "--rate", "500"],
        ["loadtest", *SMALL, "--requests", "64", "--rates", "2e4", "--streams", "2", "--tier",
         "bits", "--out", os.path.join(tmp, "loadtest.json")],
    ]  # fmt: skip
    analysis = [PY, "-m", "repro.analysis", "--strict", "--engines"]
    # pytest-benchmark unhooks sys.setprofile while it times; disabled, it
    # calls each figure's body once, in the open.
    benches = ["-p", "no:cacheprovider", "--benchmark-disable"]
    return (
        [[PY, "-m", "pytest", *benches, *sorted(glob.glob("benchmarks/bench_*.py"))]]
        + [[PY, "benchmarks/e2e/run.py", "--smoke", "--trace", t] for t in ("0", "1")]
        + [[PY, "-m", f"benchmarks.{b}", "--smoke"] for b in ("bench_serving", "bench_outofcore")]
        + [[PY, "-m", "repro", *args] for args in cli]
        + [[PY, path] for path in sorted(glob.glob("examples/*.py"))]
        + [analysis + ["lint,verifier",
                       "--baseline", "scripts/analysis_baseline.json"]]
    )  # fmt: skip


def traced(commands: list, must_pass: bool) -> set:
    """Run ``commands`` under the hook; the ``(file, qualname)`` pairs they call."""
    out = tempfile.mkdtemp(prefix="reach-")
    with open(os.path.join(out, "sitecustomize.py"), "w") as fh:
        fh.write(HOOK % SRC)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([out, os.path.join(REPO, "src")]))
    try:
        for cmd in commands:
            print("+", " ".join(cmd[1:]), flush=True)
            code = subprocess.run(cmd, cwd=REPO, env=env, stdout=subprocess.DEVNULL).returncode
            if code and must_pass:
                sys.exit(f"reachability: `{' '.join(cmd[1:])}` exited {code}")
        seen = set()
        for path in glob.glob(os.path.join(out, "*.txt")):
            with open(path) as fh:
                seen.update(tuple(line.rstrip("\n").split("\t")) for line in fh)
        return seen
    finally:
        shutil.rmtree(out)


def defined() -> set:
    """Every function (no class body, lambda or comprehension) outside ``analysis/``."""
    names = set()
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        if path.startswith(os.path.join(SRC, "analysis", "")):
            continue
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if inspect.iscode(c))
            if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
                names.add((path, code.co_qualname))
    return names


def reasons() -> dict:
    """``(module, function) -> why it stays``, from the committed table."""
    kept = {}
    with open(TABLE) as fh:
        for line in fh:
            cells = [c.strip() for c in line.split("|")[1:-1]]
            if len(cells) == 4 and cells[0].startswith("`"):
                kept[cells[0].strip("`"), cells[1].strip("`")] = cells[3]
    return kept


def main() -> int:
    kept = reasons()
    shutil.rmtree(os.path.join(REPO, "benchmarks", ".cache"), ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        live = traced(roots(tmp), must_pass=True)
    tested = traced([[PY, "-m", "pytest", "-p", "no:cacheprovider", "tests"]], must_pass=False)
    unreached = sorted((os.path.relpath(p, SRC), q, (p, q) in tested) for p, q in defined() - live)
    rows = [
        f"| `{m}` | `{q}` | {'tier-1' if t else 'nothing'} | {kept.get((m, q), '**none**')} |"
        for m, q, t in unreached
    ]
    with open(TABLE) as fh:
        head = fh.read().partition("\n" + HEADER)[0]
    with open(TABLE, "w") as fh:
        fh.write(f"{head}\n{HEADER}\n|---|---|---|---|\n")
        fh.write("".join(row + "\n" for row in rows))
    missing = [row for row in rows if row.endswith("**none** |")]
    for row in missing:
        print(f"reachability: no reason to keep {row}", file=sys.stderr)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())

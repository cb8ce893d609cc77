"""The documentation names only things that exist.

Every committed ``*.md`` that documents this code is scanned: the root's
``README.md``, ``DESIGN.md`` and ``EXPERIMENTS.md`` (the other root files
are running logs or notes on the paper and related work) and every
``*.md`` below the root except the benchmark's own README:

- every dotted ``repro.…`` name must resolve by import + ``getattr``;
- every backticked ``src/ tests/ benchmarks/ scripts/ examples/ docs/``
  path must exist (``.gitignore``'d paths are exempt: they are outputs);
- every ``path:line`` reference must name an existing file and a line
  inside it (paths resolve from the repository root, then ``src/repro/``).
"""

from __future__ import annotations

import glob
import importlib
import os
import re
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT_DOCS = {"README.md", "DESIGN.md", "EXPERIMENTS.md"}
SKIPPED = {"benchmarks/e2e/README.md"}

DOTTED = re.compile(r"\brepro(?:\.\w+)+")
BACKTICKED_PATH = re.compile(r"`((?:src|tests|benchmarks|scripts|examples|docs)/[^`\s]*)")
LINE_REF = re.compile(r"([\w./-]+\.(?:py|md|json|sh|toml|txt)):(\d+)(?:[-–](\d+))?")


def _docs() -> dict:
    listed = subprocess.run(
        ["git", "ls-files", "*.md"], cwd=ROOT, capture_output=True, text=True
    ).stdout.split()
    if not listed:
        pytest.skip("not a git checkout")
    docs = {}
    for rel in listed:
        scanned = rel in ROOT_DOCS or ("/" in rel and rel not in SKIPPED)
        if scanned and os.path.exists(os.path.join(ROOT, rel)):
            with open(os.path.join(ROOT, rel), encoding="utf-8") as fh:
                docs[rel] = fh.read()
    return docs


def _ignored() -> list:
    with open(os.path.join(ROOT, ".gitignore")) as fh:
        return [ln.strip().lstrip("/") for ln in fh if ln.strip() and not ln.startswith("#")]


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def _line_count(path: str) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") + 1


@pytest.fixture(scope="module")
def docs():
    return _docs()


def test_dotted_names_resolve(docs):
    names = {(rel, name.rstrip(".")) for rel, text in docs.items() for name in DOTTED.findall(text)}
    broken = sorted(f"{rel}: {name}" for rel, name in names if not _resolves(name))
    assert not broken, broken


def test_backticked_paths_exist(docs):
    ignored = _ignored()
    broken = []
    for rel, text in docs.items():
        for path in BACKTICKED_PATH.findall(text):
            path = path.split("::")[0].split(":")[0]
            if "<" in path or any(path.startswith(ig) for ig in ignored):
                continue
            if not glob.glob(os.path.join(ROOT, path)):
                broken.append(f"{rel}: {path}")
    assert not broken, broken


def test_line_references_are_in_range(docs):
    broken = []
    for rel, text in docs.items():
        for path, first, last in LINE_REF.findall(text):
            line = int(last or first)
            found = [
                os.path.join(base, path)
                for base in (ROOT, os.path.join(ROOT, "src", "repro"))
                if os.path.isfile(os.path.join(base, path))
            ]
            if not found:
                broken.append(f"{rel}: {path}:{line} (no such file)")
            elif line > _line_count(found[0]):
                broken.append(f"{rel}: {path}:{line} (past the end)")
    assert not broken, broken

"""The documentation names only things that exist.

Every committed ``*.md`` that documents this code is scanned: the root's
``README.md``, ``DESIGN.md`` and ``EXPERIMENTS.md`` (the other root files
are running logs or notes on the paper and related work) and every
``*.md`` below the root except the benchmark's own README:

- every dotted ``repro.…`` name must resolve by import + ``getattr``;
- every backticked ``src/ tests/ benchmarks/ scripts/ examples/ docs/``
  path must exist (``.gitignore``'d paths are exempt: they are outputs);
- every ``path:line`` reference must name an existing file and a line
  inside it (paths resolve from the repository root, then ``src/repro/``);
- every ``repro …`` / ``python -m repro …`` command line, in a fenced
  block or an inline code span, must parse against
  :func:`repro.cli.build_parser`: no unknown subcommand, flag or choice.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import importlib
import io
import os
import re
import shlex
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT_DOCS = {"README.md", "DESIGN.md", "EXPERIMENTS.md"}
SKIPPED = {"benchmarks/e2e/README.md"}

DOTTED = re.compile(r"\brepro(?:\.\w+)+")
BACKTICKED_PATH = re.compile(r"`((?:src|tests|benchmarks|scripts|examples|docs)/[^`\s]*)")
LINE_REF = re.compile(r"([\w./-]+\.(?:py|md|json|sh|toml|txt)):(\d+)(?:[-–](\d+))?")
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
INLINE = re.compile(r"`([^`]+)`")
# optional prompt and VAR=value prefixes, then the command itself
CLI_LINE = re.compile(r"^(?:\$\s*)?(?:\w+=\S*\s+)*(?:python3?\s+-m\s+repro|repro)(?:\s+(.*))?$")
SHELL_OPERATORS = {"|", "||", "&&", ";", ">", ">>", "&"}


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


def _command_lines(text: str) -> list:
    """Argument lists of every CLI command line in one document."""
    lines = []
    for block in FENCE.findall(text):
        lines += block.replace("\\\n", " ").splitlines()
    lines += [" ".join(span.split()) for span in INLINE.findall(FENCE.sub("", text))]
    commands = []
    for line in lines:
        match = CLI_LINE.match(line.strip())
        if match:
            argv = shlex.split(match.group(1) or "", comments=True)
            cut = [i for i, tok in enumerate(argv) if tok in SHELL_OPERATORS]
            commands.append(argv[: cut[0]] if cut else argv)
    return commands


def _lenient_parser() -> argparse.ArgumentParser:
    """The CLI's parser with nothing required.

    A doc line may leave out a required argument (``python -m repro
    loadtest`` in prose); it may not misname one.
    """
    from repro.cli import build_parser

    parser = build_parser()
    pending = [parser]
    while pending:
        for action in pending.pop()._actions:
            action.required = False
            if isinstance(action.choices, dict):
                subparsers = action.choices.values()
                pending += [p for p in subparsers if isinstance(p, argparse.ArgumentParser)]
    return parser


def test_cli_command_lines_parse(docs):
    parser = _lenient_parser()
    checked, broken = 0, []
    for rel, text in docs.items():
        for argv in _command_lines(text):
            checked += 1
            err = io.StringIO()
            try:
                with contextlib.redirect_stderr(err):
                    parser.parse_args(argv)
            except SystemExit:
                message = err.getvalue().strip().splitlines()[-1:]
                broken.append(f"{rel}: repro {shlex.join(argv)} -> {message}")
    assert checked >= 10, f"only {checked} command lines found: the scan is broken"
    assert not broken, broken


def test_cli_scan_catches_drift():
    text = (
        "```bash\npython -m repro search --dataset sift \\\n    --no-such-flag 3\n```\n"
        "Run `PYTHONPATH=src python -m repro frobnicate` or `repro sweep --graph bogus`."
    )
    parser = _lenient_parser()
    failures = 0
    for argv in _command_lines(text):
        with contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit):
            parser.parse_args(argv)
        failures += 1
    assert failures == 3

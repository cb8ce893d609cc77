"""Hot-path lint: AST rules for the modules the searcher's inner loop runs.

Files opt in with a ``# lint: hot-path`` marker comment (the batched
search engine, the packed-key structures, the distance kernels, the
graph builders and the serving loop's batcher, engine and metrics
carry it).  Marked files are held to the repo's vectorization
invariants:

``hot-loop``
    No per-element Python ``for`` loop over a dataset-sized iterable:
    ``for .. in range(<non-constant>)``, ``for .. in enumerate(..)`` and
    ``for .. in <x>.tolist()`` are flagged.  Loops over constant literal
    ranges (unrolled small factors) and ``while`` loops are exempt; the
    batch-level loops the design permits (per-batch result assembly,
    tile loops) carry explicit allows.
``float64-upcast``
    Packed-key arrays (``uint64`` from ``pack_keys`` / ``PAD_KEY``) must
    not meet raw Python float literals in arithmetic — numpy silently
    upcasts ``uint64 op float`` to float64, which loses the low id bits
    of a packed key.  Names assigned from packing primitives are tracked
    through simple dataflow and flagged when they reach a ``BinOp``
    against a float constant.
``narrow-int``
    A signed or unsigned 8/16/32-bit integer type (``np.int32``,
    ``np.uint16``, ... as ``dtype=``, ``.astype``, ``.view`` or a
    constructor, or a dtype string such as ``"int32"`` / ``"u4"``) is
    flagged: packed keys and flat indices here are products of dataset
    sizes, and a narrow one wraps silently.  Its allow must name the
    bound that keeps the values in range, as text after the closing
    parenthesis, e.g. ``# lint: allow(narrow-int) ranks < k0 <= 2**15 - 1``.
``exports``
    A hot module must declare ``__all__``, every exported name must
    exist at module top level (error), and exported functions/classes
    plus the module itself must carry docstrings (warning).

Three nondeterminism rules (warnings) run on marked files and on every
module under ``serve/``, where run-to-run divergence breaks the
reproducibility experiments and the serving replay tests:

``nondet-sort``
    ``argsort`` (function or method) without ``kind="stable"`` /
    ``"mergesort"``: tie order under the default introsort depends on
    the partition schedule.  ``lexsort`` is stable by contract and plain
    value sorts are deterministic (ties are equal values); neither is
    flagged.  A bare argsort over keys that cannot tie carries an allow
    saying why.
``nondet-rng``
    The legacy global-state ``np.random.*`` API, and ``default_rng()``
    without a seed.
``nondet-clock``
    Wall-clock reads (``time.time`` / ``perf_counter`` / ``monotonic``,
    ``datetime.now`` / ``utcnow``): the serving layer routes time through
    its event loop's clock so replay tests stay exact.

Escape hatch: ``# lint: allow(<rule>[, <rule>...])`` on the flagged
line, on the line directly above it, or on the ``def`` line of the
enclosing function (a function-level waiver).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding, Severity

#: Marker comment that opts a file into the hot-path rules.
HOT_MARKER = "# lint: hot-path"

#: Rule identifiers the allow() escape hatch accepts.
LINT_RULES = (
    "hot-loop", "float64-upcast", "narrow-int", "exports",
    "nondet-sort", "nondet-rng", "nondet-clock",
)

_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\(\s*([a-zA-Z0-9_\-, ]+?)\s*\)(.*)")

#: numpy integer types narrower than 64 bits, as attributes and dtype strings.
_NARROW_INTS = {"int8", "int16", "int32", "uint8", "uint16", "uint32"}
_NARROW_CODES = _NARROW_INTS | {"i1", "i2", "i4", "u1", "u2", "u4"}

#: Sort kinds with a stability guarantee (ties keep input order).
_STABLE_KINDS = {"stable", "mergesort"}

#: Legacy np.random attributes backed by the shared global BitGenerator.
_LEGACY_RNG = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "seed", "uniform", "normal", "standard_normal",
}

#: (module-ish name, attribute) pairs that read the wall clock.
_CLOCK_READS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("time", "clock_gettime"),
    ("datetime", "now"), ("datetime", "utcnow"), ("date", "today"),
}

#: Callables whose results are packed uint64 keys (dataflow seeds).
_PACK_SOURCES = {"pack_keys", "uint64"}
_PACK_CONSTANTS = {"PAD_KEY"}


def _allow_map(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """1-based line → set of rule names allowed on that line."""
    allows: Dict[int, Set[str]] = {}
    for i, line in enumerate(lines, start=1):
        m = _ALLOW_RE.search(line)
        if m:
            rules = {part.strip() for part in m.group(1).split(",")} - {""}
            # a narrow-int allow counts only with its bound after the ")"
            if not m.group(2).strip(" :-—"):
                rules.discard("narrow-int")
            allows[i] = rules
    return allows


class _FunctionLines(ast.NodeVisitor):
    """Maps every node's line to the ``def`` line of its enclosing function."""

    def __init__(self) -> None:
        self.enclosing: Dict[int, int] = {}
        self._stack: List[int] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._stack.append(node.lineno)
        self.generic_visit(node)
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def generic_visit(self, node: ast.AST) -> None:
        lineno = getattr(node, "lineno", None)
        if lineno is not None and self._stack:
            self.enclosing.setdefault(lineno, self._stack[-1])
        super().generic_visit(node)


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def _is_const_int(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _is_const_int(node.operand)
    return False


def _hot_loop_reason(iter_node: ast.AST) -> Optional[str]:
    """Why a ``for`` iterable looks per-element, or ``None`` if exempt."""
    if not isinstance(iter_node, ast.Call):
        return None
    name = _call_name(iter_node)
    if name == "range" and not all(_is_const_int(a) for a in iter_node.args):
        return "iterates range() over a non-constant extent"
    if name == "enumerate":
        return "iterates enumerate() element by element"
    if name == "tolist" and isinstance(iter_node.func, ast.Attribute):
        return "iterates an array converted with .tolist()"
    return None


def _packed_names(tree: ast.Module) -> Set[str]:
    """Names assigned (transitively, two passes) from packing primitives."""
    packed: Set[str] = set()

    def value_is_packed(value: ast.AST) -> bool:
        if isinstance(value, ast.Call):
            name = _call_name(value)
            if name in _PACK_SOURCES:
                return True
        if isinstance(value, ast.Name) and (
            value.id in _PACK_CONSTANTS or value.id in packed
        ):
            return True
        if isinstance(value, ast.Attribute) and value.attr in _PACK_CONSTANTS:
            return True
        if isinstance(value, ast.BinOp):
            return value_is_packed(value.left) or value_is_packed(value.right)
        return False

    for _ in range(2):  # one propagation round is enough for chains of two
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and value_is_packed(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        packed.add(target.id)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if value_is_packed(node.value) and isinstance(node.target, ast.Name):
                    packed.add(node.target.id)
    return packed


def _narrow_ints(tree: ast.Module) -> Dict[int, str]:
    """Line -> the first narrow integer type named on it."""
    found: Dict[int, str] = {}
    for node in ast.walk(tree):
        name = None
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _NARROW_INTS
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")
        ):
            name = f"np.{node.attr}"
        elif isinstance(node, ast.Call):
            values = list(node.args) + [k.value for k in node.keywords if k.arg == "dtype"]
            for value in values:
                if (
                    isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                    and value.value.lstrip("<>=|") in _NARROW_CODES
                ):
                    name = repr(value.value)
                    break
        if name is not None:
            found.setdefault(node.lineno, name)
    return found


def _attr_chain(node: ast.AST) -> List[str]:
    """``np.random.seed`` -> ["np", "random", "seed"]."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


def _kind_is_stable(call: ast.Call) -> bool:
    for kw in call.keywords:
        if kw.arg == "kind":
            return isinstance(kw.value, ast.Constant) and kw.value.value in _STABLE_KINDS
    return False


def _nondet(call: ast.Call) -> Optional[Tuple[str, str]]:
    """``(rule, message)`` when ``call`` is a nondeterminism hazard."""
    chain = _attr_chain(call.func)
    if not chain:
        return None
    leaf = chain[-1]
    if leaf == "argsort" and not _kind_is_stable(call):
        return "nondet-sort", (
            "argsort without kind='stable': tie order under the default sort "
            "is backend-dependent; pass kind='stable', or allow it and say "
            "why the keys cannot tie"
        )
    if leaf == "default_rng" and not call.args and not call.keywords:
        return "nondet-rng", (
            "default_rng() without a seed draws OS entropy; thread an "
            "explicit seed through for reproducible builds"
        )
    if len(chain) >= 2 and chain[-2] == "random" and leaf in _LEGACY_RNG:
        return "nondet-rng", (
            f"legacy np.random.{leaf} uses shared global RNG state; "
            "use a seeded np.random.default_rng(...) Generator"
        )
    if len(chain) >= 2 and (chain[-2], leaf) in _CLOCK_READS:
        return "nondet-clock", (
            f"wall-clock read {chain[-2]}.{leaf}(): route time through "
            "the event loop's clock so serving runs replay exactly"
        )
    return None


def _check_exports(tree: ast.Module, path: str) -> List[Finding]:
    findings: List[Finding] = []
    top_level: Dict[str, ast.AST] = {}
    exported: Optional[List[str]] = None
    export_line = 1
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            top_level[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    top_level[target.id] = node
                    if target.id == "__all__":
                        export_line = node.lineno
                        try:
                            exported = [
                                elt.value
                                for elt in node.value.elts  # type: ignore[attr-defined]
                                if isinstance(elt, ast.Constant)
                            ]
                        except AttributeError:
                            exported = None
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            top_level[node.target.id] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                top_level[alias.asname or alias.name.split(".")[0]] = node

    if ast.get_docstring(tree) is None:
        findings.append(
            Finding(
                rule="exports",
                severity=Severity.WARNING,
                location=f"{path}:1",
                message="hot module has no module docstring",
            )
        )
    if exported is None:
        findings.append(
            Finding(
                rule="exports",
                severity=Severity.ERROR,
                location=f"{path}:1",
                message="hot module does not declare __all__ (or it is not a literal list)",
            )
        )
        return findings
    for name in exported:
        node = top_level.get(name)
        if node is None:
            findings.append(
                Finding(
                    rule="exports",
                    severity=Severity.ERROR,
                    location=f"{path}:{export_line}",
                    message=f"__all__ exports {name!r} but the module does not define it",
                )
            )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if ast.get_docstring(node) is None:
                findings.append(
                    Finding(
                        rule="exports",
                        severity=Severity.WARNING,
                        location=f"{path}:{node.lineno}",
                        message=f"exported {name!r} has no docstring",
                    )
                )
    return findings


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one file's text: every rule on a marked file, the nondet rules
    only on an unmarked one under ``serve/``, nothing on any other."""
    lines = source.splitlines()
    # The marker must be a standalone comment line, so merely *mentioning*
    # it (docstrings, this module's own constant) does not opt a file in.
    hot = any(line.strip() == HOT_MARKER for line in lines)
    if not hot and Path(path).parent.name != "serve":
        return []
    allows = _allow_map(lines)
    tree = ast.parse(source, filename=path)
    functions = _FunctionLines()
    functions.visit(tree)

    def allowed(rule: str, lineno: int) -> bool:
        for candidate in (lineno, lineno - 1, functions.enclosing.get(lineno)):
            if candidate is not None and rule in allows.get(candidate, ()):
                return True
        return False

    findings: List[Finding] = []

    for node in ast.walk(tree):
        hazard = _nondet(node) if isinstance(node, ast.Call) else None
        if hazard and not allowed(hazard[0], node.lineno):
            findings.append(
                Finding(
                    rule=hazard[0],
                    severity=Severity.WARNING,
                    location=f"{path}:{node.lineno}",
                    message=hazard[1],
                )
            )
    if not hot:
        return findings

    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            reason = _hot_loop_reason(node.iter)
            if reason and not allowed("hot-loop", node.lineno):
                findings.append(
                    Finding(
                        rule="hot-loop",
                        severity=Severity.ERROR,
                        location=f"{path}:{node.lineno}",
                        message=(
                            f"per-element Python loop in a hot module ({reason}); "
                            "vectorize or annotate `# lint: allow(hot-loop)`"
                        ),
                    )
                )

    packed = _packed_names(tree)
    if packed:
        for node in ast.walk(tree):
            if not isinstance(node, ast.BinOp):
                continue
            sides = (node.left, node.right)
            has_packed = any(
                isinstance(s, ast.Name) and s.id in packed for s in sides
            )
            has_float = any(
                isinstance(s, ast.Constant) and isinstance(s.value, float)
                for s in sides
            )
            if has_packed and has_float and not allowed("float64-upcast", node.lineno):
                names = [s.id for s in sides if isinstance(s, ast.Name) and s.id in packed]
                findings.append(
                    Finding(
                        rule="float64-upcast",
                        severity=Severity.ERROR,
                        location=f"{path}:{node.lineno}",
                        message=(
                            f"packed uint64 key {names[0]!r} meets a raw float "
                            "literal: numpy upcasts to float64 and drops low id "
                            "bits; use an explicit np.uint64 operand"
                        ),
                    )
                )

    for lineno, name in sorted(_narrow_ints(tree).items()):
        if not allowed("narrow-int", lineno):
            findings.append(
                Finding(
                    rule="narrow-int",
                    severity=Severity.ERROR,
                    location=f"{path}:{lineno}",
                    message=(
                        f"{name} is narrower than 64 bits in a hot module; "
                        "annotate `# lint: allow(narrow-int) <bound>` naming "
                        "what keeps its values in range"
                    ),
                )
            )

    for finding in _check_exports(tree, path):
        lineno = int(finding.location.rsplit(":", 1)[1])
        if not allowed("exports", lineno):
            findings.append(finding)
    return findings


def lint_paths(paths: Iterable[Path]) -> List[Finding]:
    """Lint a set of files (non-Python files contribute nothing)."""
    findings: List[Finding] = []
    for path in paths:
        p = Path(path)
        if p.suffix != ".py":
            continue
        findings.extend(lint_source(p.read_text(), str(p)))
    return findings


def lint_tree(root: Path) -> List[Finding]:
    """Recursively lint every ``.py`` under ``root`` (sorted, stable order)."""
    return lint_paths(sorted(Path(root).rglob("*.py")))

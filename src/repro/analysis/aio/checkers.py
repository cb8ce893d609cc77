"""Checker families over the extracted async-concurrency model.

Four families, each returning :class:`~repro.analysis.findings.Finding`
lists (rule ids are stable and waivable via ``# aio: allow(<rule>)``):

``aio-atomicity`` (ERROR)
    A read-modify-write of shared ``self.`` state spans an await with no
    exclusive lock held at both ends.  Protection is *inferred*: a field
    written at least once under an exclusive token is assumed guarded by
    it, and the finding names the inferred lock so the fix is obvious.
``aio-guard`` (ERROR)
    A write to a field carrying an explicit ``# aio: guarded-by(...)``
    annotation from a coroutine that does not hold the declared token.
``aio-lock-order`` (ERROR)
    A cycle in the acquisition-order graph: function F acquires B while
    holding A, and (possibly through callees, via the call-graph
    may-acquire summaries) some coroutine acquires A while holding B.
``aio-sem-under-lock`` (WARNING)
    Semaphore slot acquisition while holding an exclusive lock: slot
    release may require the lock, deadlocking the pool.
``aio-wall-clock`` / ``aio-rng`` (ERROR), ``aio-unordered-spawn`` /
``aio-sleep-zero`` (WARNING)
    Virtual-time determinism events (wall-clock reads, seedless or
    shared-state RNG, set iteration driving spawn/await order, bare
    ``asyncio.sleep(0)``) inside async functions.
``aio-unawaited`` (ERROR), ``aio-dropped-task`` (WARNING),
``aio-gather-policy`` (WARNING)
    Task hygiene: coroutine called but never awaited, ``create_task``
    handle discarded, ``gather`` on a shutdown path (or over a task
    container field) without an explicit ``return_exceptions`` policy.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.aio.callgraph import CallGraph
from repro.analysis.aio.model import FunctionModel, ModuleModel
from repro.analysis.findings import Finding, Severity

__all__ = [
    "AIO_RULES",
    "check_atomicity",
    "check_determinism",
    "check_hygiene",
    "check_lock_order",
    "run_checkers",
]

AIO_RULES = (
    "aio-atomicity",
    "aio-guard",
    "aio-lock-order",
    "aio-sem-under-lock",
    "aio-wall-clock",
    "aio-rng",
    "aio-unordered-spawn",
    "aio-sleep-zero",
    "aio-unawaited",
    "aio-dropped-task",
    "aio-gather-policy",
)

def _loc(module: ModuleModel, line: int) -> str:
    return f"{module.path}:{line}"


def _exclusive(locks: Iterable[Tuple]) -> Set[str]:
    """Tokens held exclusively (plain locks, not semaphore slots)."""
    return {token for token, kind, *_ in locks if kind == "lock"}


def _exclusive_spans(locks: Iterable[Tuple]) -> Set[Tuple[str, int]]:
    """``(token, acquisition-seq)`` ids of the exclusive locks held.

    Intersecting read-side and write-side ids demands the *same
    acquisition* at both ends: a lock released and re-taken across the
    await gets a new seq and no longer counts as protection.
    """
    return {(token, seq) for token, kind, _mode, seq in locks if kind == "lock"}


# -- family 1: atomicity across await -----------------------------------


def _protection_map(modules: Sequence[ModuleModel]) -> Dict[Tuple[str, str], str]:
    """Infer ``(class, field) -> lock token`` from observed writes.

    A field is *assumed* guarded by a token when every write to it from
    an async method that holds any exclusive token holds that same one.
    Declared ``# aio: guarded-by(...)`` annotations win over inference.
    """
    votes: Dict[Tuple[str, str], Set[str]] = {}
    seen: Set[Tuple[str, str]] = set()
    for module in modules:
        for cls in module.classes.values():
            for fn in cls.methods.values():
                if not fn.is_async:
                    continue
                for w in fn.writes:
                    key = (cls.name, w.field.split(".")[0])
                    seen.add(key)
                    excl = _exclusive(w.locks)
                    if excl:
                        votes.setdefault(key, set()).update(excl)
    inferred = {
        key: sorted(tokens)[0]
        for key, tokens in votes.items()
        if len(tokens) == 1
    }
    for module in modules:
        for cls in module.classes.values():
            for fld, token in cls.guards.items():
                inferred[(cls.name, fld)] = _canon_guard(cls.name, token)
    return inferred


def _canon_guard(cls_name: str, token: str) -> str:
    """``self._lock`` / ``Replica._device_lock`` → canonical ``Class.attr``."""
    token = token.strip()
    if token.startswith("self."):
        return f"{cls_name}.{token[len('self.'):]}"
    return token


def check_atomicity(
    modules: Sequence[ModuleModel], graph: CallGraph
) -> List[Finding]:
    findings: List[Finding] = []
    protection = _protection_map(modules)
    for module in modules:
        for fn in module.all_functions():
            if not fn.is_async:
                continue
            cls_name = fn.cls or ""
            for pair in fn.atomicity:
                base = pair.field.split(".")[0]
                if _exclusive_spans(pair.read_locks) & _exclusive_spans(
                    pair.write_locks
                ):
                    continue  # same exclusive acquisition spans the await
                if module.allowed("aio-atomicity", pair.write_line):
                    continue
                guard = protection.get((cls_name, base))
                hint = (
                    f"; inferred protection map says hold {guard} across both"
                    if guard
                    else "; no lock is known to guard this field — add one or "
                    "annotate with # aio: guarded-by(...)"
                )
                findings.append(
                    Finding(
                        rule="aio-atomicity",
                        severity=Severity.ERROR,
                        location=_loc(module, pair.write_line),
                        message=(
                            f"{fn.qualname}: read of self.{pair.field} at line "
                            f"{pair.read_line} crosses {pair.awaits_between} "
                            f"await point(s) before the write-back; another "
                            f"coroutine can interleave and the update is lost"
                            f"{hint}"
                        ),
                    )
                )
            # Declared-guard violations: any write without the token.
            if fn.cls is not None:
                cls = _class_of(modules, fn.cls)
                if cls is None:
                    continue
                for w in fn.writes:
                    base = w.field.split(".")[0]
                    token = cls.guards.get(base)
                    if token is None:
                        continue
                    canon = _canon_guard(fn.cls, token)
                    held = {t for t, *_ in w.locks}
                    if canon in held:
                        continue
                    if module.allowed("aio-guard", w.line):
                        continue
                    findings.append(
                        Finding(
                            rule="aio-guard",
                            severity=Severity.ERROR,
                            location=_loc(module, w.line),
                            message=(
                                f"{fn.qualname}: write to self.{w.field} "
                                f"without holding {canon}, declared by its "
                                f"# aio: guarded-by annotation"
                            ),
                        )
                    )
    return findings


def _class_of(modules: Sequence[ModuleModel], name: str):
    for module in modules:
        if name in module.classes:
            return module.classes[name]
    return None


# -- family 2: lock order / deadlock ------------------------------------


def check_lock_order(
    modules: Sequence[ModuleModel], graph: CallGraph
) -> List[Finding]:
    findings: List[Finding] = []
    # Acquisition-order edges: token held -> token acquired, with the
    # site that witnesses the edge.  Semaphore self-edges are legal
    # (counting semantics) and skipped.
    edges: Dict[str, Dict[str, Tuple[ModuleModel, FunctionModel, int]]] = {}

    def add_edge(a: str, b: str, module, fn, line) -> None:
        if a == b:
            return
        edges.setdefault(a, {}).setdefault(b, (module, fn, line))

    for module in modules:
        for fn in module.all_functions():
            for acq in fn.acquisitions:
                # semaphore under an exclusive lock.
                if acq.kind == "sem" and _exclusive(acq.held):
                    holder = sorted(_exclusive(acq.held))[0]
                    if not module.allowed("aio-sem-under-lock", acq.line):
                        findings.append(
                            Finding(
                                rule="aio-sem-under-lock",
                                severity=Severity.WARNING,
                                location=_loc(module, acq.line),
                                message=(
                                    f"{fn.qualname}: semaphore {acq.token} "
                                    f"acquired while holding exclusive "
                                    f"{holder}; if slot release needs that "
                                    "lock the pool deadlocks"
                                ),
                            )
                        )
                for t, _k, _m, _s in acq.held:
                    add_edge(t, acq.token, module, fn, acq.line)
            # Call-edge propagation: everything a callee may acquire is
            # ordered after every token held at the call site.
            for site in fn.calls:
                if site.style == "task" or not site.held:
                    continue
                for callee in graph.resolve(fn, site.target):
                    for token, _kind, _mode in graph.may_acquire.get(
                        callee, frozenset()
                    ):
                        for t, _k, _m, _s in site.held:
                            add_edge(t, token, module, fn, site.line)

    # DFS cycle detection over the order graph.
    reported: Set[frozenset] = set()
    for start in sorted(edges):
        stack = [(start, [start])]
        while stack:
            node, path = stack.pop()
            for nxt in sorted(edges.get(node, ())):
                if nxt == start and len(path) > 1:
                    key = frozenset(path)
                    if key in reported:
                        continue
                    reported.add(key)
                    module, fn, line = edges[path[-1]][start]
                    if module.allowed("aio-lock-order", line):
                        continue
                    cycle = " -> ".join(path + [start])
                    findings.append(
                        Finding(
                            rule="aio-lock-order",
                            severity=Severity.ERROR,
                            location=_loc(module, line),
                            message=(
                                f"{fn.qualname}: acquisition-order cycle "
                                f"{cycle}; two coroutines taking these locks "
                                "in opposite orders deadlock"
                            ),
                        )
                    )
                elif nxt not in path:
                    stack.append((nxt, path + [nxt]))
    return findings


# -- family 3: virtual-time determinism ---------------------------------

_EVENT_RULES = {
    "wall-clock": ("aio-wall-clock", Severity.ERROR),
    "rng": ("aio-rng", Severity.ERROR),
    "unordered-iter": ("aio-unordered-spawn", Severity.WARNING),
    "sleep-zero": ("aio-sleep-zero", Severity.WARNING),
}


def check_determinism(
    modules: Sequence[ModuleModel], graph: CallGraph
) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        for fn in module.all_functions():
            if not fn.is_async:
                continue
            for ev in fn.events:
                if ev.kind not in _EVENT_RULES:
                    continue
                rule, severity = _EVENT_RULES[ev.kind]
                if module.allowed(rule, ev.line):
                    continue
                findings.append(
                    Finding(
                        rule=rule,
                        severity=severity,
                        location=_loc(module, ev.line),
                        message=f"{fn.qualname}: {ev.detail}",
                    )
                )
    return findings


# -- family 4: task hygiene ---------------------------------------------

_SHUTDOWN_RE = None  # set lazily from model to keep one definition


def _is_shutdown_name(name: str) -> bool:
    global _SHUTDOWN_RE
    if _SHUTDOWN_RE is None:
        from repro.analysis.aio.model import _SHUTDOWN_RE as pat

        _SHUTDOWN_RE = pat
    return bool(_SHUTDOWN_RE.search(name))


def check_hygiene(
    modules: Sequence[ModuleModel], graph: CallGraph
) -> List[Finding]:
    findings: List[Finding] = []
    for module in modules:
        for fn in module.all_functions():
            for site in fn.calls:
                if site.style != "bare":
                    continue
                if not graph.is_coroutine(site.target):
                    continue
                if module.allowed("aio-unawaited", site.line):
                    continue
                findings.append(
                    Finding(
                        rule="aio-unawaited",
                        severity=Severity.ERROR,
                        location=_loc(module, site.line),
                        message=(
                            f"{fn.qualname}: coroutine {site.target}() called "
                            "but never awaited — the body never runs"
                        ),
                    )
                )
            for ev in fn.events:
                if ev.kind != "dropped-task":
                    continue
                if module.allowed("aio-dropped-task", ev.line):
                    continue
                findings.append(
                    Finding(
                        rule="aio-dropped-task",
                        severity=Severity.WARNING,
                        location=_loc(module, ev.line),
                        message=f"{fn.qualname}: {ev.detail}",
                    )
                )
            cls = _class_of(modules, fn.cls) if fn.cls else None
            task_fields = cls.task_fields if cls is not None else set()
            for g in fn.gathers:
                if g.has_policy:
                    continue
                on_shutdown = _is_shutdown_name(g.func_name)
                over_tasks = (
                    g.source_field is not None
                    and g.source_field.split(".")[0] in task_fields
                )
                if not (on_shutdown or over_tasks):
                    continue
                if module.allowed("aio-gather-policy", g.line):
                    continue
                why = (
                    "a shutdown path" if on_shutdown else "a task container"
                )
                findings.append(
                    Finding(
                        rule="aio-gather-policy",
                        severity=Severity.WARNING,
                        location=_loc(module, g.line),
                        message=(
                            f"{fn.qualname}: gather on {why} without an "
                            "explicit return_exceptions policy; the first "
                            "failure abandons the remaining awaits mid-"
                            "shutdown"
                        ),
                    )
                )
    return findings


# -- driver -------------------------------------------------------------


def run_checkers(
    modules: Sequence[ModuleModel], graph: Optional[CallGraph] = None
) -> List[Finding]:
    """All four families over ``modules`` (building the graph if needed)."""
    if graph is None:
        from repro.analysis.aio.callgraph import build_call_graph

        graph = build_call_graph(modules)
    findings: List[Finding] = []
    findings.extend(check_atomicity(modules, graph))
    findings.extend(check_lock_order(modules, graph))
    findings.extend(check_determinism(modules, graph))
    findings.extend(check_hygiene(modules, graph))
    return findings

"""Async-concurrency model extraction for the serving layer.

This module turns the source of ``repro.serve`` (and the stream-model
integration points) into a checkable model of its concurrency behaviour:

* **await points** — every ``await`` is numbered in source order and
  treated as a potential interleaving boundary (on a virtual-time loop a
  non-suspending await does not actually yield, but the scheduler is
  free to change that; the analysis is conservative);
* **lock contexts** — ``async with`` blocks and manual
  ``acquire``/``release`` pairs over fields constructed as
  :class:`asyncio.Lock` or :class:`asyncio.Semaphore`.  Factory methods that hand out a lazily created
  lock (``def _slots(self): ... return self._stream_slots``) canonicalise
  to the underlying field, so ``async with self._slots():`` and a direct
  field acquisition name the same token;
* **field accesses** — reads and writes of ``self.`` state, each stamped
  with the await index and the locks held at that instant, plus a small
  local dataflow (reads assigned to locals are *taints* that surface
  when the local later flows into a write of the same field);
* **call/spawn structure** — awaited calls, ``create_task`` spawns, bare
  (un-awaited) calls, and ``gather`` sites with their exception policy.

Annotations (comments, checked by :mod:`repro.analysis.aio.checkers`):

``# aio: guarded-by(self._lock)``
    on a field's assignment declares the lock that must be held to
    mutate it from a coroutine.
``# aio: allow(<rule>[, <rule>...])``
    on the flagged line, the line above, or the enclosing ``def`` line
    waives a rule occurrence (same contract as the hot-path lint).

Soundness caveats (documented in DESIGN.md Sec. 15): branches of a
conditional are walked in sequence, loop bodies once; acquisitions whose
release lives in a different function are treated as held to the end of
the acquiring function; attribute aliasing through locals is not
tracked beyond single-assignment taints.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Acquisition",
    "AtomicityPair",
    "CallSite",
    "ClassModel",
    "FunctionModel",
    "GatherSite",
    "ModuleModel",
    "ReadRecord",
    "WriteRecord",
    "extract_module",
    "extract_paths",
]

#: Constructors that make a field (or module global) a lock token.
_LOCK_CTORS = {
    "Lock": "lock",
    "Semaphore": "sem",
    "BoundedSemaphore": "sem",
}

#: Constructors/literals that type a field as a container.
_CONTAINER_CTORS = {"set": "set", "frozenset": "set", "dict": "dict",
                    "deque": "deque", "list": "list", "OrderedDict": "dict"}

#: Method calls that mutate the container/field they are called on.
_MUTATORS = {
    "append", "appendleft", "add", "discard", "remove", "pop", "popleft",
    "clear", "update", "extend", "insert", "setdefault",
}

#: (module-ish name, attribute) pairs that read the wall clock.  The
#: event loop's own ``loop.time()`` is virtual time and exempt.
_CLOCK_READS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "process_time"), ("time", "clock_gettime"),
    ("datetime", "now"), ("datetime", "utcnow"), ("date", "today"),
}

#: Legacy shared-state RNG attributes (np.random.*) and stdlib random.
_LEGACY_RNG = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "seed", "uniform", "normal",
    "standard_normal", "randrange", "sample",
}

_GUARD_RE = re.compile(r"#\s*aio:\s*guarded-by\(\s*([^)]+?)\s*\)")
_ALLOW_RE = re.compile(r"#\s*aio:\s*allow\(\s*([a-zA-Z0-9_\-, ]+?)\s*\)")

#: Function names that mark a shutdown/teardown path for gather policy.
_SHUTDOWN_RE = re.compile(r"stop|drain|close|shutdown|cancel|aclose|join")


#: A held-lock entry: ``(token, kind, mode, seq)``.  ``seq`` numbers the
#: acquisition within its function, so the same token re-acquired after
#: a release is a *different* entry — "held at both ends" is only
#: protection when the same acquisition spans the whole window.
HeldLock = Tuple[str, str, str, int]


@dataclass(frozen=True)
class ReadRecord:
    """One read of a ``self.`` field inside a coroutine."""

    field: str
    await_index: int
    locks: Tuple[HeldLock, ...]
    line: int


@dataclass(frozen=True)
class WriteRecord:
    """One write (store, augmented store, or mutating call) of a field."""

    field: str
    await_index: int
    locks: Tuple[HeldLock, ...]
    line: int


@dataclass(frozen=True)
class AtomicityPair:
    """A read whose value crosses an await before being written back."""

    field: str
    read_line: int
    write_line: int
    awaits_between: int
    read_locks: Tuple[HeldLock, ...]
    write_locks: Tuple[HeldLock, ...]


@dataclass(frozen=True)
class Acquisition:
    """One lock/semaphore acquisition with the context it happened in."""

    token: str
    kind: str  # "lock" | "sem"
    mode: str  # "x" (exclusive) | "s" (semaphore slot)
    line: int
    held: Tuple[HeldLock, ...]  # snapshot before this acquire
    via: str  # "with" | "manual"


@dataclass(frozen=True)
class CallSite:
    """One call to a (possibly) known coroutine."""

    target: str  # "Class.method", "function", or "?.method"
    line: int
    style: str  # "await" | "task" | "bare" | "sync"
    held: Tuple[HeldLock, ...]


@dataclass(frozen=True)
class GatherSite:
    """One ``asyncio.gather`` call."""

    line: int
    has_policy: bool  # return_exceptions passed explicitly
    source_field: Optional[str]  # self-field the starred args came from
    func_name: str


@dataclass(frozen=True)
class Event:
    """A syntactic determinism/hygiene event inside a coroutine."""

    kind: str  # "wall-clock" | "rng" | "sleep-zero" | "unordered-iter" | "dropped-task"
    line: int
    detail: str


@dataclass
class FunctionModel:
    """Everything the checkers need to know about one function."""

    qualname: str
    path: str
    lineno: int
    is_async: bool
    cls: Optional[str] = None
    name: str = ""
    reads: List[ReadRecord] = field(default_factory=list)
    writes: List[WriteRecord] = field(default_factory=list)
    atomicity: List[AtomicityPair] = field(default_factory=list)
    acquisitions: List[Acquisition] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    gathers: List[GatherSite] = field(default_factory=list)
    events: List[Event] = field(default_factory=list)
    await_count: int = 0


@dataclass
class ClassModel:
    """Per-class lock/field typing plus the method models."""

    name: str
    lock_fields: Dict[str, str] = field(default_factory=dict)  # attr -> kind
    lock_methods: Dict[str, str] = field(default_factory=dict)  # method -> attr
    container_fields: Dict[str, str] = field(default_factory=dict)
    task_fields: Set[str] = field(default_factory=set)
    guards: Dict[str, str] = field(default_factory=dict)  # field -> token
    methods: Dict[str, FunctionModel] = field(default_factory=dict)


@dataclass
class ModuleModel:
    """One analyzed source file."""

    path: str
    classes: Dict[str, ClassModel] = field(default_factory=dict)
    functions: Dict[str, FunctionModel] = field(default_factory=dict)
    module_locks: Dict[str, str] = field(default_factory=dict)  # name -> kind
    allow: Dict[int, Set[str]] = field(default_factory=dict)
    enclosing_def: Dict[int, int] = field(default_factory=dict)

    def all_functions(self) -> List[FunctionModel]:
        """Every function model, methods included, in source order."""
        out = list(self.functions.values())
        for cls in self.classes.values():
            out.extend(cls.methods.values())
        return sorted(out, key=lambda f: f.lineno)

    def allowed(self, rule: str, lineno: int) -> bool:
        """True when an ``# aio: allow`` waiver covers this line."""
        for cand in (lineno, lineno - 1, self.enclosing_def.get(lineno)):
            if cand is not None and rule in self.allow.get(cand, ()):
                return True
        return False


def _ctor_kind(value: ast.AST, table: Dict[str, str]) -> Optional[str]:
    """Classify ``asyncio.Lock()`` / ``set()`` / ``{}`` style constructors."""
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name in table:
            return table[name]
    if table is _CONTAINER_CTORS:
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
    return None


def _self_attr(node: ast.AST) -> Optional[str]:
    """``self.a.b`` → ``"a.b"``; ``None`` for non-self-rooted expressions."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        return ".".join(reversed(parts))
    return None


def _attr_chain(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return list(reversed(parts))


class _ClassScanner:
    """First pass over a class: field typing, guards, factory methods."""

    def __init__(self, node: ast.ClassDef, lines: Sequence[str]) -> None:
        self.model = ClassModel(name=node.name)
        self._lines = lines
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_method(item)
        # Factory methods resolve after all fields are typed.
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._scan_factory(item)

    def _guard_on(self, lineno: int) -> Optional[str]:
        if 1 <= lineno <= len(self._lines):
            m = _GUARD_RE.search(self._lines[lineno - 1])
            if m:
                return m.group(1)
        return None

    def _scan_method(self, fn) -> None:
        for node in ast.walk(fn):
            target = None
            value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if target is None:
                continue
            attr = _self_attr(target)
            if attr is None or "." in attr:
                continue
            kind = _ctor_kind(value, _LOCK_CTORS)
            if kind is not None:
                self.model.lock_fields[attr] = kind
            ckind = _ctor_kind(value, _CONTAINER_CTORS)
            if ckind is not None:
                self.model.container_fields.setdefault(attr, ckind)
            guard = self._guard_on(node.lineno)
            if guard is not None:
                self.model.guards[attr] = guard
            # Task containers: self.F[task] = None / self.F.add(task)
            # are detected in the event walker; here catch annotations
            # like ``self._inflight: Dict[asyncio.Task, None] = {}``.
            if isinstance(node, ast.AnnAssign) and "Task" in ast.unparse(
                node.annotation
            ):
                self.model.task_fields.add(attr)

    def _scan_factory(self, fn) -> None:
        for node in ast.walk(fn):
            if isinstance(node, ast.Return) and node.value is not None:
                attr = _self_attr(node.value)
                if attr in self.model.lock_fields:
                    self.model.lock_methods[fn.name] = attr


class _DefLines(ast.NodeVisitor):
    """Line → enclosing ``def`` line, for allow() waivers on the def."""

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


class _FuncWalker:
    """Ordered walk of one coroutine: awaits, locks, accesses, events."""

    def __init__(
        self,
        fn,
        module: ModuleModel,
        cls: Optional[ClassModel],
        path: str,
    ) -> None:
        self.fn = fn
        self.module = module
        self.cls = cls
        qual = f"{cls.name}.{fn.name}" if cls else fn.name
        self.model = FunctionModel(
            qualname=qual,
            path=path,
            lineno=fn.lineno,
            is_async=isinstance(fn, ast.AsyncFunctionDef),
            cls=cls.name if cls else None,
            name=fn.name,
        )
        self.await_index = 0
        self.held: List[HeldLock] = []
        self._acq_seq = 0
        # local name -> reads that produced it (the taint set)
        self.taints: Dict[str, Tuple[ReadRecord, ...]] = {}
        # local name -> "task" when bound from create_task(...)
        self.task_vars: Set[str] = set()
        # local name -> self-field it was materialised from (tuple(self.F))
        self.container_vars: Dict[str, str] = {}

    # -- lock canonicalisation -------------------------------------------

    def _token_of(self, expr: ast.AST) -> Optional[Tuple[str, str]]:
        """Resolve a lock expression to ``(token, kind)``."""
        attr = _self_attr(expr)
        if attr is not None and self.cls is not None:
            if attr in self.cls.lock_fields:
                return f"{self.cls.name}.{attr}", self.cls.lock_fields[attr]
        if isinstance(expr, ast.Call):
            inner = _self_attr(expr.func)
            if (
                inner is not None
                and self.cls is not None
                and inner in self.cls.lock_methods
            ):
                target = self.cls.lock_methods[inner]
                return (
                    f"{self.cls.name}.{target}",
                    self.cls.lock_fields[target],
                )
        if isinstance(expr, ast.Name):
            kind = self.module.module_locks.get(expr.id)
            if kind is not None:
                return expr.id, kind
        return None

    def _held_snapshot(self) -> Tuple[HeldLock, ...]:
        return tuple(self.held)

    def _acquire(self, token: str, kind: str, mode: str, line: int, via: str) -> None:
        self.model.acquisitions.append(
            Acquisition(token, kind, mode, line, self._held_snapshot(), via)
        )
        self.held.append((token, kind, mode, self._acq_seq))
        self._acq_seq += 1

    def _release(self, token: str) -> None:
        for i in range(len(self.held) - 1, -1, -1):
            if self.held[i][0] == token:
                del self.held[i]
                return

    # -- entry -----------------------------------------------------------

    def run(self) -> FunctionModel:
        self.block(self.fn.body)
        self.model.await_count = self.await_index
        return self.model

    def block(self, stmts: Sequence[ast.stmt]) -> None:
        for s in stmts:
            self.stmt(s)

    # -- statements ------------------------------------------------------

    def stmt(self, s: ast.stmt) -> None:
        if isinstance(s, ast.Assign):
            reads = self.expr(s.value)
            for target in s.targets:
                self._store(target, s.value, reads)
        elif isinstance(s, ast.AnnAssign):
            reads = self.expr(s.value) if s.value is not None else []
            if s.value is not None:
                self._store(s.target, s.value, reads)
        elif isinstance(s, ast.AugAssign):
            field_name = _self_attr(s.target)
            pre_read = None
            if field_name is not None:
                pre_read = ReadRecord(
                    field_name, self.await_index, self._held_snapshot(), s.lineno
                )
                self.model.reads.append(pre_read)
            reads = self.expr(s.value)
            if field_name is not None:
                self._write_field(field_name, s.lineno, s.value, reads, pre_read)
        elif isinstance(s, ast.Expr):
            self._expr_stmt(s.value)
        elif isinstance(s, (ast.AsyncWith, ast.With)):
            self._with(s)
        elif isinstance(s, (ast.For, ast.AsyncFor)):
            self._for(s)
        elif isinstance(s, ast.While):
            self.expr(s.test)
            self.block(s.body)
            self.block(s.orelse)
        elif isinstance(s, ast.If):
            self.expr(s.test)
            self.block(s.body)
            self.block(s.orelse)
        elif isinstance(s, ast.Try):
            self.block(s.body)
            for handler in s.handlers:
                self.block(handler.body)
            self.block(s.orelse)
            self.block(s.finalbody)
        elif isinstance(s, ast.Return) and s.value is not None:
            self.expr(s.value)
        elif isinstance(s, ast.Raise) and s.exc is not None:
            self.expr(s.exc)
        elif isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            pass  # nested defs are modelled separately if at class/module level
        elif isinstance(s, ast.Delete):
            pass
        else:
            for child in ast.iter_child_nodes(s):
                if isinstance(child, ast.expr):
                    self.expr(child)

    def _store(
        self, target: ast.AST, value: ast.AST, reads: List[ReadRecord]
    ) -> None:
        field_name = _self_attr(target)
        if field_name is not None:
            self._write_field(field_name, target.lineno, value, reads, None)
            return
        if isinstance(target, ast.Subscript):
            base = _self_attr(target.value)
            if base is not None:
                self._write_field(base, target.lineno, value, reads, None)
                self._note_task_store(base, target)
            return
        if isinstance(target, ast.Name):
            names = {
                n.id
                for n in ast.walk(value)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            taint: List[ReadRecord] = list(reads)
            for n in names:
                taint.extend(self.taints.get(n, ()))
            if taint:
                self.taints[target.id] = tuple(taint)
            else:
                self.taints.pop(target.id, None)
            if self._is_create_task(value):
                self.task_vars.add(target.id)
            src = self._container_source(value)
            if src is not None:
                self.container_vars[target.id] = src
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._store(elt, value, reads)

    def _note_task_store(self, base: str, target: ast.Subscript) -> None:
        """``self.F[task] = ...`` with a create_task-bound key marks F."""
        if self.cls is None:
            return
        key = target.slice
        if isinstance(key, ast.Name) and key.id in self.task_vars:
            self.cls.task_fields.add(base.split(".")[0])

    def _write_field(
        self,
        field_name: str,
        line: int,
        value: Optional[ast.AST],
        reads: List[ReadRecord],
        pre_read: Optional[ReadRecord],
    ) -> None:
        locks = self._held_snapshot()
        self.model.writes.append(
            WriteRecord(field_name, self.await_index, locks, line)
        )
        candidates: List[ReadRecord] = []
        for rec in reads:
            if rec.field == field_name and rec.await_index < self.await_index:
                candidates.append(rec)
        if pre_read is not None and pre_read.await_index < self.await_index:
            candidates.append(pre_read)
        if value is not None:
            for n in ast.walk(value):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    for rec in self.taints.get(n.id, ()):
                        if (
                            rec.field == field_name
                            and rec.await_index < self.await_index
                        ):
                            candidates.append(rec)
        if candidates:
            first = min(candidates, key=lambda r: (r.await_index, r.line))
            self.model.atomicity.append(
                AtomicityPair(
                    field=field_name,
                    read_line=first.line,
                    write_line=line,
                    awaits_between=self.await_index - first.await_index,
                    read_locks=first.locks,
                    write_locks=locks,
                )
            )

    # -- expression statements (bare calls, releases, spawns) ------------

    def _expr_stmt(self, e: ast.expr) -> None:
        if isinstance(e, ast.Call):
            func = e.func
            if isinstance(func, ast.Attribute) and func.attr == "release":
                tok = self._token_of(func.value)
                if tok is not None:
                    self._release(tok[0])
                    return
            if self._is_create_task(e):
                self.model.events.append(
                    Event(
                        "dropped-task",
                        e.lineno,
                        "create_task handle discarded; no owner can cancel "
                        "or observe the task",
                    )
                )
            self._call(e, awaited=False, bare=True)
            return
        self.expr(e)

    # -- with / for -------------------------------------------------------

    def _with(self, s) -> None:
        is_async = isinstance(s, ast.AsyncWith)
        entered: List[Optional[Tuple[str, str]]] = []
        for item in s.items:
            ctx = item.context_expr
            self.expr(ctx, skip_lock_call=True)
            tok = self._token_of(ctx)
            if is_async:
                self.await_index += 1
            if tok is not None and is_async:
                token, kind = tok
                mode = "x" if kind == "lock" else "s"
                self._acquire(token, kind, mode, ctx.lineno, "with")
            entered.append(tok if is_async else None)
        self.block(s.body)
        for tok in reversed(entered):
            if is_async:
                self.await_index += 1
            if tok is not None:
                self._release(tok[0])

    def _for(self, s) -> None:
        self.expr(s.iter)
        src = self._container_source(s.iter) or (
            s.iter.id if isinstance(s.iter, ast.Name) else None
        )
        field_name = src if src is not None else None
        if field_name is not None:
            resolved = self.container_vars.get(field_name, field_name)
            ctype = (
                self.cls.container_fields.get(resolved.split(".")[0])
                if self.cls is not None
                else None
            )
            if ctype == "set" and any(
                isinstance(n, (ast.Await, ast.Call))
                and (isinstance(n, ast.Await) or self._is_spawn(n))
                for n in ast.walk(s)
            ):
                self.model.events.append(
                    Event(
                        "unordered-iter",
                        s.lineno,
                        f"iterating set-typed self.{resolved} drives task "
                        "spawn/await order; sets iterate in hash order, which "
                        "varies run to run",
                    )
                )
        if isinstance(s.target, ast.Name):
            self.taints.pop(s.target.id, None)
        self.block(s.body)
        self.block(s.orelse)

    # -- expressions ------------------------------------------------------

    def expr(
        self, e: Optional[ast.AST], awaited: bool = False, skip_lock_call: bool = False
    ) -> List[ReadRecord]:
        """Process one expression; returns the field reads it performed."""
        if e is None:
            return []
        reads: List[ReadRecord] = []
        if isinstance(e, ast.Await):
            reads.extend(self._await(e))
            return reads
        if isinstance(e, ast.Call):
            reads.extend(self._call(e, awaited=awaited, skip_lock=skip_lock_call))
            return reads
        if isinstance(e, ast.Attribute) and isinstance(e.ctx, ast.Load):
            attr = _self_attr(e)
            if attr is not None:
                rec = ReadRecord(
                    attr, self.await_index, self._held_snapshot(), e.lineno
                )
                self.model.reads.append(rec)
                reads.append(rec)
                return reads
        for child in ast.iter_child_nodes(e):
            if isinstance(child, ast.expr):
                reads.extend(self.expr(child))
        return reads

    def _await(self, e: ast.Await) -> List[ReadRecord]:
        inner = e.value
        if isinstance(inner, ast.Call):
            func = inner.func
            # Manual lock acquisition: await <lockexpr>.acquire()
            if isinstance(func, ast.Attribute) and func.attr == "acquire":
                tok = self._token_of(func.value)
                if tok is not None:
                    token, kind = tok
                    mode = "x" if kind == "lock" else "s"
                    self.await_index += 1
                    self._acquire(token, kind, mode, e.lineno, "manual")
                    return []
            reads = self._call(inner, awaited=True)
            self.await_index += 1
            return reads
        reads = self.expr(inner)
        self.await_index += 1
        return reads

    def _call(
        self,
        e: ast.Call,
        awaited: bool = False,
        skip_lock: bool = False,
        bare: bool = False,
    ) -> List[ReadRecord]:
        reads: List[ReadRecord] = []
        chain = _attr_chain(e.func)
        leaf = chain[-1] if chain else ""
        if self._is_create_task(e):
            spawned = self._spawn_target(e)
            if spawned is not None:
                self.model.calls.append(
                    CallSite(spawned, e.lineno, "task", self._held_snapshot())
                )
            # Walk the spawned call's own arguments, but not the inner
            # call itself: it runs in the task's context, not here.
            if e.args and isinstance(e.args[0], ast.Call):
                inner = e.args[0]
                for arg in inner.args:
                    reads.extend(self.expr(arg))
                for kw in inner.keywords:
                    reads.extend(self.expr(kw.value))
            return reads
        if leaf == "sleep" and "asyncio" in chain[:-1] or (
            leaf == "sleep" and len(chain) == 1
        ):
            if e.args and isinstance(e.args[0], ast.Constant) and e.args[0].value == 0:
                self.model.events.append(
                    Event(
                        "sleep-zero",
                        e.lineno,
                        "bare asyncio.sleep(0) is a scheduling race: it "
                        "yields to whatever happens to be ready",
                    )
                )
        if leaf == "gather":
            self._gather(e)
        if len(chain) >= 2 and (chain[-2], leaf) in _CLOCK_READS:
            self.model.events.append(
                Event(
                    "wall-clock",
                    e.lineno,
                    f"{chain[-2]}.{leaf}() reads the wall clock inside a "
                    "coroutine; use loop.time() so virtual-time runs replay "
                    "bit-for-bit",
                )
            )
        self._rng_event(e, chain, leaf)
        if not skip_lock:
            target = self._call_target(e)
            if target is not None:
                style = "await" if awaited else ("bare" if bare else "sync")
                self.model.calls.append(
                    CallSite(target, e.lineno, style, self._held_snapshot())
                )
        for arg in e.args:
            if isinstance(arg, ast.Starred):
                reads.extend(self.expr(arg.value))
            else:
                reads.extend(self.expr(arg))
        for kw in e.keywords:
            reads.extend(self.expr(kw.value))
        if not isinstance(e.func, ast.Name):
            reads.extend(self.expr(e.func.value) if isinstance(e.func, ast.Attribute) else [])
        # Mutating method calls on self fields are writes.
        if isinstance(e.func, ast.Attribute) and leaf in _MUTATORS:
            base = _self_attr(e.func.value)
            if base is not None:
                self.model.writes.append(
                    WriteRecord(
                        base, self.await_index, self._held_snapshot(), e.lineno
                    )
                )
                if leaf in ("add", "append", "appendleft") and e.args:
                    a0 = e.args[0]
                    if (
                        isinstance(a0, ast.Name)
                        and a0.id in self.task_vars
                        and self.cls is not None
                    ):
                        self.cls.task_fields.add(base.split(".")[0])
        return reads

    def _rng_event(self, e: ast.Call, chain: List[str], leaf: str) -> None:
        if leaf == "default_rng" and not e.args and not e.keywords:
            self.model.events.append(
                Event(
                    "rng",
                    e.lineno,
                    "default_rng() without a seed draws OS entropy inside a "
                    "coroutine; thread an explicit seed through",
                )
            )
            return
        if len(chain) >= 2 and chain[-2] == "random" and leaf in _LEGACY_RNG:
            self.model.events.append(
                Event(
                    "rng",
                    e.lineno,
                    f"shared-state RNG {chain[-2]}.{leaf}() inside a "
                    "coroutine; use a seeded np.random.default_rng(...)",
                )
            )

    def _gather(self, e: ast.Call) -> None:
        has_policy = any(kw.arg == "return_exceptions" for kw in e.keywords)
        source_field: Optional[str] = None
        for arg in e.args:
            if not isinstance(arg, ast.Starred):
                continue
            src = self._container_source(arg.value)
            if src is None and isinstance(arg.value, ast.Name):
                src = self.container_vars.get(arg.value.id)
            if src is not None:
                source_field = src
                ctype = (
                    self.cls.container_fields.get(src.split(".")[0])
                    if self.cls is not None
                    else None
                )
                if ctype == "set":
                    self.model.events.append(
                        Event(
                            "unordered-iter",
                            e.lineno,
                            f"gather(*…self.{src}) spreads a set: the await "
                            "registration order varies run to run",
                        )
                    )
        self.model.gathers.append(
            GatherSite(e.lineno, has_policy, source_field, self.fn.name)
        )

    def _container_source(self, expr: ast.AST) -> Optional[str]:
        """``tuple(self.F)`` / ``list(self.F)`` / ``self.F`` → ``F``."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in ("tuple", "list", "sorted", "frozenset", "set"):
                if expr.args:
                    return self._container_source(expr.args[0])
        attr = _self_attr(expr)
        return attr

    def _is_create_task(self, e: ast.AST) -> bool:
        if not isinstance(e, ast.Call):
            return False
        chain = _attr_chain(e.func)
        return bool(chain) and chain[-1] in ("create_task", "ensure_future")

    def _is_spawn(self, e: ast.AST) -> bool:
        if not isinstance(e, ast.Call):
            return False
        chain = _attr_chain(e.func)
        return bool(chain) and chain[-1] in (
            "create_task",
            "ensure_future",
            "gather",
        )

    def _spawn_target(self, e: ast.Call) -> Optional[str]:
        if e.args and isinstance(e.args[0], ast.Call):
            return self._call_target(e.args[0])
        return None

    def _call_target(self, e: ast.Call) -> Optional[str]:
        func = e.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            chain = _attr_chain(func)
            if chain and chain[0] in ("asyncio", "np", "numpy", "time", "loop"):
                return None
            attr = _self_attr(func)
            if attr is not None and "." not in attr and self.cls is not None:
                return f"{self.cls.name}.{attr}"
            if isinstance(func.value, ast.Name):
                return f"?.{func.attr}"
        return None


def extract_module(source: str, path: str = "<string>") -> ModuleModel:
    """Parse one file into a :class:`ModuleModel` (all passes)."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    module = ModuleModel(path=path)
    for i, line in enumerate(lines, start=1):
        m = _ALLOW_RE.search(line)
        if m:
            module.allow[i] = {
                part.strip() for part in m.group(1).split(",") if part.strip()
            }
    defs = _DefLines()
    defs.visit(tree)
    module.enclosing_def = defs.enclosing
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                kind = _ctor_kind(node.value, _LOCK_CTORS)
                if kind is not None:
                    module.module_locks[target.id] = kind
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            cls = _ClassScanner(node, lines).model
            module.classes[node.name] = cls
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walker = _FuncWalker(item, module, cls, path)
                    cls.methods[item.name] = walker.run()
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walker = _FuncWalker(node, module, None, path)
            module.functions[node.name] = walker.run()
    return module


def extract_paths(paths: Sequence[Path]) -> List[ModuleModel]:
    """Extract every ``.py`` file in ``paths`` (sorted, stable order)."""
    models: List[ModuleModel] = []
    for path in sorted(Path(p) for p in paths):
        if path.suffix != ".py":
            continue
        models.append(extract_module(path.read_text(), str(path)))
    return models

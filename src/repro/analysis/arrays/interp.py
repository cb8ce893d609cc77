"""AST-driven abstract interpreter for annotated vectorized host kernels.

:class:`KernelAnalyzer` walks one ``@array_kernel`` function's AST with
an abstract store mapping names to :class:`~.values.ArrayVal`, using the
transfer functions in :mod:`.transfer` for the numpy idioms the repo's
kernels are written in.  Four value-aware checker passes fire during the
walk (the fifth, syntactic nondeterminism, lives in :mod:`.nondet`):

``packed-key-overflow``
    Integer results (binops, casts, stores, the ``pack_rowid`` /
    ``pack_keys`` summaries) whose symbolic bounds exceed their dtype's
    representable range.  A binary search over the declared parameter
    box looks for the smallest concrete witness (``n = 3037000500`` for
    an int64 ``row * n + id`` pack at ``n <= 2**32``) and reports it.
``broadcast-mismatch``
    Elementwise ops whose operand shapes are provably incompatible —
    two known dims differ for at least one admitted assignment and
    neither is 1.
``fancy-index-oob``
    Gather/scatter index arrays not provably inside ``[0, dim - 1]``.
    Provable violations are errors; unprovable ones are warnings (the
    pressure to annotate tighter bounds), and unknown dims make no
    claim.
``inplace-aliasing``
    Fancy-indexed in-place updates (``out[idx] += v``) whose index is
    not provably duplicate-free — numpy's unbuffered read-modify-write
    silently drops all but one contribution per duplicated index.

Soundness caveats (DESIGN.md Sec. 14): declared argument specs and
``returns`` contracts are *assumed*, not re-verified against bodies
(assume-guarantee); numeric projections of polynomial bounds sum
per-monomial ranges, dropping cross-monomial correlation (sound but
occasionally unprovable); unsupported constructs degrade to ``TOP``
silently rather than reporting.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.findings import Finding, Severity
from repro.annotations import (
    ArraySpec,
    KernelAnnotation,
    OpaqueSpec,
    ScalarSpec,
    get_annotation,
)

from . import transfer
from .dtypes import int_range, is_bool, is_integer, normalize, promote
from .sym import ParamEnv, SInterval, SymExpr, parse_expr
from .values import ArrayVal, broadcast_shapes, shape_str

__all__ = ["KernelAnalyzer", "analyze_kernel", "find_counterexample"]

_INF = float("inf")

#: Loop body re-executions before widening kicks in.
_LOOP_ITERATIONS = 3


# --------------------------------------------------------------------------
# non-array evaluation results
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NpModule:
    """The ``np`` module (or ``np.random``-style submodules)."""

    path: str = "numpy"


@dataclass(frozen=True)
class NpFunc:
    """A numpy callable attribute (``np.arange``, ``np.maximum.accumulate``)."""

    name: str


@dataclass(frozen=True)
class DtypeCtor:
    """A dtype constructor (``np.int64``) — callable and usable as dtype=."""

    name: str


@dataclass(frozen=True)
class FuncRef:
    """A resolved python function (possible kernel-summary target)."""

    qualname: str


@dataclass(frozen=True)
class Method:
    """A bound array method; remembers the receiver for in-place ops."""

    receiver: ArrayVal
    node: ast.AST
    name: str


@dataclass(frozen=True)
class Values:
    """A python tuple/list of evaluated items (shape tuples, arg lists)."""

    items: Tuple[Any, ...]


_OPAQUE = ArrayVal.top()

_NUMPY_DTYPES = {
    "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64",
    "float16", "float32", "float64", "bool_", "bool8", "intp",
}

_REDUCTIONS = {"sum", "min", "max", "any", "all", "mean"}

_BINOPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Mod: "%", ast.LShift: "<<", ast.RShift: ">>", ast.BitOr: "|",
    ast.BitAnd: "&", ast.BitXor: "^", ast.Div: "/", ast.Pow: "**",
}


def find_counterexample(
    expr: SymExpr, env: ParamEnv, limit: int
) -> Optional[Dict[str, int]]:
    """Smallest single-parameter witness with ``expr > limit``, if any.

    Fixes every parameter at its declared maximum (the polynomial
    endpoints the kernels produce are monotone in each parameter), then
    binary-searches each parameter in turn for the smallest value that
    still exceeds ``limit``.  Returns the full assignment, or ``None``
    when even the all-max corner stays within bounds.
    """
    names = expr.params()
    if not names:
        value = expr.evaluate({})
        return {} if value > limit else None
    corner: Dict[str, int] = {}
    for name in names:
        lo, hi = env.range_of(name)
        if hi == _INF or lo == -_INF:
            return None
        corner[name] = int(hi)
    if expr.evaluate(corner) <= limit:
        return None
    best = dict(corner)
    for name in names:
        lo = int(env.range_of(name)[0])
        hi = best[name]
        while lo < hi:
            mid = (lo + hi) // 2
            trial = dict(best)
            trial[name] = mid
            if expr.evaluate(trial) > limit:
                hi = mid
            else:
                lo = mid + 1
        best[name] = hi
    return best


class KernelAnalyzer:
    """Abstractly interpret one annotated kernel and collect findings."""

    def __init__(self, annotation: KernelAnnotation) -> None:
        self.annotation = annotation
        self.env = ParamEnv()
        self.findings: List[Finding] = []
        self.proven: List[str] = []
        self.scope: Dict[str, Any] = {}
        #: id(mask ArrayVal) -> {id(source ArrayVal): refined interval}
        self._mask_facts: Dict[int, Dict[int, SInterval]] = {}
        #: id(mask ArrayVal) -> the shared fresh length of its selections
        self._mask_len: Dict[int, SymExpr] = {}
        #: strong refs so id() keys can never be recycled mid-analysis
        self._keepalive: List[Any] = []
        self._file = "<unknown>"
        self._line_offset = 0
        self._current_line = 0

    # -- reporting ---------------------------------------------------------

    def _loc(self, node: Optional[ast.AST] = None) -> str:
        line = getattr(node, "lineno", None) if node is not None else None
        if line is None:
            line = self._current_line
        return f"{self._file}:{self._line_offset + line - 1}"

    def _emit(self, rule: str, severity: Severity, loc: str, message: str) -> None:
        if rule in self.annotation.waive:
            return
        self.findings.append(
            Finding(rule=rule, severity=severity, location=loc,
                    message=f"{self.annotation.name}: {message}")
        )

    def warn(self, rule: str, loc: str, message: str) -> None:
        self._emit(rule, Severity.WARNING, loc, message)

    def error(self, rule: str, loc: str, message: str) -> None:
        self._emit(rule, Severity.ERROR, loc, message)

    def prove(self, loc: str, message: str) -> None:
        self.proven.append(f"{loc}: {self.annotation.name}: {message}")

    def report_overflow(self, loc: str, hi, dtype: str, what: str) -> None:
        limit = int_range(dtype)
        example = None
        if limit is not None and isinstance(hi, SymExpr):
            example = find_counterexample(hi, self.env, limit[1])
        if example is not None:
            at = ", ".join(f"{k}={v}" for k, v in sorted(example.items()))
            self.error(
                "packed-key-overflow", loc,
                f"{what} can reach {hi}, exceeding {dtype}; "
                f"counterexample: {at or 'constant bound'}",
            )
        else:
            self.warn(
                "packed-key-overflow", loc,
                f"{what} has upper bound {hi}, not provably within {dtype}",
            )

    def report_broadcast(self, loc: str, conflict: tuple, what: str) -> None:
        axis, da, db = conflict
        self.error(
            "broadcast-mismatch", loc,
            f"{what}: dims {da} and {db} (axis -{axis + 1}) are provably "
            "incompatible for at least one admitted parameter assignment",
        )

    # -- entry point -------------------------------------------------------

    def run(self) -> List[Finding]:
        func = self.annotation.func
        try:
            source, start = inspect.getsourcelines(func)
            self._file = self._relpath(inspect.getsourcefile(func) or "<unknown>")
        except (OSError, TypeError):
            return self.findings
        self._line_offset = start
        tree = ast.parse(textwrap.dedent("".join(source)))
        fdef = tree.body[0]
        if not isinstance(fdef, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return self.findings
        self._bind_params()
        self._bind_args(fdef)
        self._exec_block(fdef.body)
        return self.findings

    @staticmethod
    def _relpath(path: str) -> str:
        p = Path(path).resolve()
        for parent in p.parents:
            if parent.name == "src":
                return str(p.relative_to(parent.parent))
        return str(p)

    def _bind_params(self) -> None:
        for name, (lo, hi) in self.annotation.params.items():
            self.env.declare(name, lo, hi)

    def _spec_ival(self, lo, hi) -> SInterval:
        lo_e = parse_expr(lo) if lo is not None else -_INF
        hi_e = parse_expr(hi) if hi is not None else _INF
        return SInterval(lo_e, hi_e)

    def _clamp_dtype(self, ival: SInterval, dtype: Optional[str]) -> SInterval:
        """Integer arrays always hold values within their dtype's range."""
        rng = int_range(dtype) if dtype is not None else None
        if rng is None:
            return ival
        return ival.meet(SInterval.of(rng[0], rng[1]), self.env)

    def _from_spec(self, spec) -> Any:
        if isinstance(spec, OpaqueSpec):
            return _OPAQUE
        if isinstance(spec, ScalarSpec):
            if spec.expr is not None:
                return ArrayVal.scalar(
                    SInterval.const(parse_expr(spec.expr)), dtype=normalize(spec.dtype)
                )
            return ArrayVal.scalar(
                self._clamp_dtype(
                    self._spec_ival(spec.lo, spec.hi), normalize(spec.dtype)
                ),
                dtype=normalize(spec.dtype),
            )
        if isinstance(spec, ArraySpec):
            dims = None
            if spec.dims is not None:
                dims = tuple(parse_expr(d) for d in spec.dims)
            dtype = normalize(spec.dtype)
            return ArrayVal(
                shape=dims,
                dtype=dtype,
                ival=self._clamp_dtype(self._spec_ival(spec.lo, spec.hi), dtype),
                unique=spec.unique,
                sorted_=spec.sorted_,
            )
        return _OPAQUE

    def _bind_args(self, fdef: ast.FunctionDef) -> None:
        for arg in fdef.args.args + fdef.args.kwonlyargs:
            spec = self.annotation.args.get(arg.arg)
            self.scope[arg.arg] = self._from_spec(spec) if spec is not None else _OPAQUE

    # -- statements --------------------------------------------------------

    def _exec_block(self, stmts: Sequence[ast.stmt]) -> str:
        """Run statements; returns ``"fall"`` or a terminal status."""
        for stmt in stmts:
            self._current_line = getattr(stmt, "lineno", self._current_line)
            status = self._exec_stmt(stmt)
            if status != "fall":
                return status
        return "fall"

    def _exec_stmt(self, stmt: ast.stmt) -> str:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, value, stmt)
            return "fall"
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self._eval(stmt.value), stmt)
            return "fall"
        if isinstance(stmt, ast.AugAssign):
            self._aug_assign(stmt)
            return "fall"
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
            return "fall"
        if isinstance(stmt, ast.If):
            return self._exec_if(stmt)
        if isinstance(stmt, ast.While):
            self._exec_while(stmt)
            return "fall"
        if isinstance(stmt, ast.For):
            self._exec_for(stmt)
            return "fall"
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value)
            return "return"
        if isinstance(stmt, ast.Raise):
            return "raise"
        if isinstance(stmt, ast.ImportFrom):
            self._exec_import(stmt)
            return "fall"
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr)
            return self._exec_block(stmt.body)
        if isinstance(stmt, (ast.Pass, ast.Assert, ast.Import)):
            return "fall"
        return "fall"  # unsupported statements are skipped (TOP state kept)

    def _exec_import(self, stmt: ast.ImportFrom) -> None:
        import importlib

        try:
            module = importlib.import_module(stmt.module or "")
        except ImportError:
            return
        for alias in stmt.names:
            obj = getattr(module, alias.name, None)
            self.scope[alias.asname or alias.name] = self._resolve_global(obj)

    def _exec_if(self, stmt: ast.If) -> str:
        self._eval(stmt.test)
        before = dict(self.scope)
        status_body = self._exec_block(stmt.body)
        after_body = dict(self.scope)
        self.scope = before
        status_else = self._exec_block(stmt.orelse)
        if status_body != "fall" and status_else != "fall":
            return status_body
        if status_body != "fall":
            return "fall"  # scope already holds the else state
        if status_else != "fall":
            self.scope = after_body
            return "fall"
        self.scope = self._join_scopes(after_body, self.scope)
        return "fall"

    def _exec_while(self, stmt: ast.While) -> None:
        self._eval(stmt.test)
        state = dict(self.scope)
        for iteration in range(_LOOP_ITERATIONS + 1):
            self.scope = dict(state)
            status = self._exec_block(stmt.body)
            merged = (
                state if status != "fall" else self._join_scopes(state, self.scope)
            )
            if iteration >= _LOOP_ITERATIONS:
                merged = self._widen_scopes(state, merged)
            if self._scopes_same(state, merged):
                state = merged
                break
            state = merged
        self.scope = state

    def _exec_for(self, stmt: ast.For) -> None:
        """Loops in decorated kernels are block/tile loops: havoc targets."""
        self._eval(stmt.iter)
        self._assign(stmt.target, _OPAQUE, stmt)
        state = dict(self.scope)
        for iteration in range(_LOOP_ITERATIONS + 1):
            self.scope = dict(state)
            status = self._exec_block(stmt.body)
            merged = (
                state if status != "fall" else self._join_scopes(state, self.scope)
            )
            if iteration >= _LOOP_ITERATIONS:
                merged = self._widen_scopes(state, merged)
            if self._scopes_same(state, merged):
                state = merged
                break
            state = merged
        self.scope = state

    def _join_scopes(self, a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name, va in a.items():
            if name not in b:
                continue
            vb = b[name]
            if va is vb:
                out[name] = va
            elif isinstance(va, ArrayVal) and isinstance(vb, ArrayVal):
                out[name] = va.join(vb, self.env)
            else:
                out[name] = va
        return out

    def _widen_scopes(self, old: Dict[str, Any], new: Dict[str, Any]) -> Dict[str, Any]:
        out = dict(new)
        for name, vn in new.items():
            vo = old.get(name)
            if isinstance(vo, ArrayVal) and isinstance(vn, ArrayVal) and vo is not vn:
                out[name] = vo.widened(vn, self.env)
        return out

    def _scopes_same(self, a: Dict[str, Any], b: Dict[str, Any]) -> bool:
        if a.keys() != b.keys():
            return False
        for name, va in a.items():
            vb = b[name]
            if va is vb:
                continue
            if isinstance(va, ArrayVal) and isinstance(vb, ArrayVal):
                if not va.same(vb):
                    return False
            else:
                return False
        return True

    # -- assignment --------------------------------------------------------

    def _assign(self, target: ast.AST, value: Any, stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            self.scope[target.id] = value
            if isinstance(value, ArrayVal):
                self._keepalive.append(value)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            items = value.items if isinstance(value, Values) else None
            if items is None and isinstance(value, tuple):
                items = value
            for i, elt in enumerate(target.elts):
                item = items[i] if items is not None and i < len(items) else _OPAQUE
                self._assign(elt, item, stmt)
            return
        if isinstance(target, ast.Subscript):
            self._scatter(target, value, stmt, inplace_op=None)
            return

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        op = _BINOPS.get(type(stmt.op), "?")
        value = self._eval(stmt.value)
        if isinstance(stmt.target, ast.Name):
            current = self.scope.get(stmt.target.id, _OPAQUE)
            if isinstance(current, ArrayVal) and isinstance(value, ArrayVal):
                self.scope[stmt.target.id] = self._binop(current, value, op, stmt)
            else:
                self.scope[stmt.target.id] = _OPAQUE
            return
        if isinstance(stmt.target, ast.Subscript):
            self._scatter(stmt.target, value, stmt, inplace_op=op)

    def _scatter(
        self,
        target: ast.Subscript,
        value: Any,
        stmt: ast.stmt,
        inplace_op: Optional[str],
    ) -> None:
        base = self._eval(target.value)
        if not isinstance(base, ArrayVal):
            return
        index_vals = self._check_indices(base, target.slice, stmt)
        if inplace_op is not None:
            self._check_aliasing(index_vals, stmt)
        if not isinstance(value, ArrayVal):
            value = _OPAQUE
        # store-time overflow: the value is cast into the target dtype
        if (
            is_integer(base.dtype)
            and not is_bool(base.dtype)
            and isinstance(value.ival.hi, SymExpr)
        ):
            rng = int_range(base.dtype)
            if rng is not None and value.ival.num_hi(self.env) > rng[1]:
                self.report_overflow(
                    self._loc(stmt), value.ival.hi, base.dtype,
                    "stored value",
                )
        updated = base.with_(
            ival=base.ival.hull(value.ival, self.env),
            unique=False,
            sorted_=False,
        )
        if isinstance(target.value, ast.Name):
            self.scope[target.value.id] = updated
            self._keepalive.append(updated)

    def _check_aliasing(self, index_vals: List[ArrayVal], stmt: ast.stmt) -> None:
        for idx in index_vals:
            if idx.is_scalar:
                continue
            if not idx.unique:
                self.error(
                    "inplace-aliasing", self._loc(stmt),
                    "fancy-indexed in-place update whose index array is not "
                    "provably duplicate-free: numpy's unbuffered "
                    "read-modify-write keeps only one contribution per "
                    "duplicated index (use np.add.at or a segmented "
                    "reduction)",
                )
                return

    # -- indexing ----------------------------------------------------------

    def _index_parts(self, slice_node: ast.AST) -> List[ast.AST]:
        if isinstance(slice_node, ast.Tuple):
            return list(slice_node.elts)
        return [slice_node]

    def _check_indices(
        self, base: ArrayVal, slice_node: ast.AST, stmt: ast.stmt
    ) -> List[ArrayVal]:
        """Validate every integer index term against its axis extent."""
        parts = self._index_parts(slice_node)
        index_vals: List[ArrayVal] = []
        axis = 0
        for part in parts:
            if isinstance(part, ast.Slice):
                axis += 1
                continue
            if isinstance(part, ast.Constant) and part.value is None:
                continue  # np.newaxis inserts an axis, consumes none
            val = self._eval(part)
            if isinstance(val, ArrayVal):
                if is_bool(val.dtype):
                    axis += val.rank if val.rank else 1
                    continue
                index_vals.append(val)
                dim = None
                if base.shape is not None and axis < len(base.shape):
                    dim = base.shape[axis]
                self._check_index_bounds(val, dim, stmt)
            axis += 1
        return index_vals

    def _check_index_bounds(
        self, idx: ArrayVal, dim: Optional[SymExpr], stmt: ast.stmt
    ) -> None:
        from .sym import _le_end

        if dim is None:
            return  # unknown extent: no claim either way
        loc = self._loc(stmt)
        zero = SymExpr.const(0)
        upper = dim - SymExpr.const(1)
        lo_ok = _le_end(zero, idx.ival.lo, self.env)
        hi_ok = _le_end(idx.ival.hi, upper, self.env)
        if lo_ok and hi_ok:
            return
        lo, hi = idx.ival.lo, idx.ival.hi
        if (
            hi_ok
            and isinstance(lo, SymExpr)
            and isinstance(hi, SymExpr)
            and _le_end(zero - dim, lo, self.env)
            and _le_end(hi, dim + lo - SymExpr.const(1), self.env)
        ):
            # Negative indices wrap to [dim + lo, dim - 1], slots no
            # non-negative index reaches: sentinel columns (PAD = -1
            # reading a bitmap's extra last column), not aliasing.
            self.prove(
                loc,
                f"negative indices wrap to sentinel slots [{dim + lo}, {upper}], "
                f"disjoint from [0, {hi}]",
            )
            return
        # Declared bounds are assumed tight, so an upper endpoint that is
        # >= dim for EVERY admitted assignment is a definite violation.
        # Negative endpoints stay warnings: numpy accepts [-dim, -1].
        if isinstance(idx.ival.hi, SymExpr) and _le_end(dim, idx.ival.hi, self.env):
            self.error(
                "fancy-index-oob", loc,
                f"index upper bound {idx.ival.hi} reaches past {dim} - 1 "
                "for every admitted assignment (declared bounds are tight)",
            )
            return
        self.warn(
            "fancy-index-oob", loc,
            f"cannot prove index within [0, {dim} - 1] "
            f"(index bounds {idx.ival})",
        )

    def _subscript_load(self, node: ast.Subscript) -> Any:
        base = self._eval(node.value)
        if isinstance(base, Values):  # tuple indexing: shape[0] etc.
            part = node.slice
            if isinstance(part, ast.Constant) and isinstance(part.value, int):
                try:
                    return base.items[part.value]
                except IndexError:
                    return _OPAQUE
            return _OPAQUE
        if not isinstance(base, ArrayVal):
            return _OPAQUE
        parts = self._index_parts(node.slice)
        # boolean-mask compression: 1-D result with a shared fresh length
        if len(parts) == 1 and not isinstance(parts[0], ast.Slice):
            only = self._eval_cached(parts[0])
            if isinstance(only, ArrayVal) and is_bool(only.dtype) and not only.is_scalar:
                return self._compress(base, only)
            if isinstance(only, ArrayVal):
                self._check_index_bounds(only, transfer.first_dim(base.shape), node)
                if only.is_scalar:
                    new_shape = base.shape[1:] if base.shape else None
                    return ArrayVal(shape=new_shape, dtype=base.dtype, ival=base.ival)
                gathered_shape = None
                if only.shape is not None and base.shape is not None:
                    gathered_shape = tuple(only.shape) + tuple(base.shape[1:])
                return ArrayVal(shape=gathered_shape, dtype=base.dtype, ival=base.ival)
        # general tuple indexing: slices keep dims, arrays broadcast,
        # None inserts, scalars drop
        self._check_indices(base, node.slice, node)
        return self._tuple_index_shape(base, parts)

    def _tuple_index_shape(self, base: ArrayVal, parts: List[ast.AST]) -> ArrayVal:
        if base.shape is None:
            return ArrayVal(shape=None, dtype=base.dtype, ival=base.ival)
        dims: List[Optional[SymExpr]] = []
        fancy_shape: Optional[Tuple[Optional[SymExpr], ...]] = None
        fancy_used = False
        axis = 0
        for part in parts:
            if isinstance(part, ast.Constant) and part.value is None:
                dims.append(SymExpr.const(1))
                continue
            if isinstance(part, ast.Slice):
                dims.append(self._slice_dim(base.shape[axis] if axis < len(base.shape) else None, part))
                axis += 1
                continue
            val = self._eval_cached(part)
            if isinstance(val, ArrayVal) and not val.is_scalar:
                shape, _ = broadcast_shapes(
                    fancy_shape if fancy_used else (), val.shape
                )
                fancy_shape = shape
                fancy_used = True
                axis += 1
                continue
            axis += 1  # scalar index: drops the axis
        tail = list(base.shape[axis:]) if axis <= len(base.shape) else []
        if fancy_used:
            fancy = list(fancy_shape) if fancy_shape is not None else [None]
            out_shape = tuple(dims) + tuple(fancy) + tuple(tail)
        else:
            out_shape = tuple(dims) + tuple(tail)
        return ArrayVal(shape=out_shape, dtype=base.dtype, ival=base.ival,
                        sorted_=base.sorted_ and not fancy_used, base=base.base)

    def _slice_dim(self, dim: Optional[SymExpr], node: ast.Slice) -> Optional[SymExpr]:
        if node.step is not None:
            return None
        lower = 0
        if node.lower is not None:
            if isinstance(node.lower, ast.Constant) and isinstance(node.lower.value, int):
                lower = node.lower.value
            else:
                return None
        if node.upper is None:
            if dim is None or lower < 0:
                return None
            return dim - SymExpr.const(lower)
        upper = self._eval(node.upper)
        if not isinstance(upper, ArrayVal) or lower != 0 or dim is None:
            return None
        stop = upper.const_value()
        if stop is None:
            return None
        from .sym import _le_end

        if stop.const_value is not None and stop.const_value < 0:
            # x[:-c] drops the last c elements
            return dim + stop
        if _le_end(stop, dim, self.env):
            return stop
        return None

    def _compress(self, base: ArrayVal, mask: ArrayVal) -> ArrayVal:
        """``x[mask]``: 1-D selection; equal masks share one fresh length."""
        length = self._mask_len.get(id(mask))
        if length is None:
            count = transfer.dim_product(base.shape)
            hi = SInterval.of(0, count).num_hi(self.env) if count is not None else _INF
            length = self.env.fresh("sel", 0, hi)
            self._mask_len[id(mask)] = length
            self._keepalive.append(mask)
        ival = base.ival
        refined = self._mask_facts.get(id(mask), {}).get(id(base))
        if refined is not None:
            ival = refined
        return ArrayVal(
            shape=(length,),
            dtype=base.dtype,
            ival=ival,
            unique=base.unique,
            sorted_=base.sorted_ and base.rank == 1,
        )

    # -- expressions -------------------------------------------------------

    def _eval_cached(self, node: ast.AST) -> Any:
        """Evaluate a name through the store (identity-preserving)."""
        return self._eval(node)

    def _eval(self, node: ast.AST) -> Any:
        if isinstance(node, ast.Constant):
            return self._const(node.value)
        if isinstance(node, ast.Name):
            if node.id in self.scope:
                return self.scope[node.id]
            module_globals = self.annotation.func.__globals__
            if node.id in module_globals:
                return self._resolve_global(module_globals[node.id])
            import builtins

            return self._resolve_global(getattr(builtins, node.id, _MISSING))
        if isinstance(node, ast.Attribute):
            return self._attribute(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Subscript):
            return self._subscript_load(node)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left)
            right = self._eval(node.right)
            op = _BINOPS.get(type(node.op), "?")
            if isinstance(left, ArrayVal) and isinstance(right, ArrayVal):
                return self._binop(left, right, op, node)
            return _OPAQUE
        if isinstance(node, ast.UnaryOp):
            return self._unary(node)
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value)
            return ArrayVal.scalar(SInterval.of(0, 1), dtype="bool")
        if isinstance(node, (ast.Tuple, ast.List)):
            return Values(tuple(self._eval(e) for e in node.elts))
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            a = self._eval(node.body)
            b = self._eval(node.orelse)
            if isinstance(a, ArrayVal) and isinstance(b, ArrayVal):
                return a.join(b, self.env)
            return _OPAQUE
        if isinstance(node, ast.JoinedStr):
            return _OPAQUE
        return _OPAQUE

    def _const(self, value: Any) -> Any:
        if isinstance(value, bool):
            return ArrayVal.scalar(SInterval.const(int(value)), dtype="bool")
        if isinstance(value, int):
            return ArrayVal.const(value)
        if isinstance(value, float):
            return ArrayVal.scalar(SInterval.top())
        if value is None:
            return None
        return _OPAQUE

    def _resolve_global(self, obj: Any) -> Any:
        import types

        import numpy as np

        if obj is _MISSING:
            return _OPAQUE
        if obj is np:
            return NpModule()
        if isinstance(obj, bool):
            return ArrayVal.scalar(SInterval.const(int(obj)), dtype="bool")
        if isinstance(obj, int):
            return ArrayVal.const(obj)
        if isinstance(obj, float):
            return ArrayVal.scalar(SInterval.top())
        if isinstance(obj, np.generic):
            if np.issubdtype(obj.dtype, np.integer) or obj.dtype == np.dtype(bool):
                return ArrayVal.scalar(
                    SInterval.const(int(obj)), dtype=obj.dtype.name
                )
            return ArrayVal.scalar(SInterval.top(), dtype=obj.dtype.name)
        if obj in (int, len, bool, float, abs, min, max):
            return NpFunc(f"builtin.{obj.__name__}")
        if isinstance(obj, types.FunctionType):
            return FuncRef(f"{obj.__module__}.{obj.__qualname__}")
        return _OPAQUE


_MISSING = object()


# attribute / call dispatch lives on the class but below for readability
def _attribute(self: KernelAnalyzer, node: ast.Attribute) -> Any:
    base = self._eval(node.value)
    attr = node.attr
    if isinstance(base, NpModule):
        if attr in _NUMPY_DTYPES:
            return DtypeCtor(normalize(attr.rstrip("_") or attr))
        if attr in ("inf", "nan", "pi", "e"):
            return ArrayVal.scalar(SInterval.top())
        if attr == "newaxis":
            return None
        if attr == "random":
            return NpModule(path="numpy.random")
        return NpFunc(attr)
    if isinstance(base, NpFunc):
        return NpFunc(f"{base.name}.{attr}")
    if isinstance(base, ArrayVal):
        if attr == "size":
            count = transfer.dim_product(base.shape)
            if count is not None:
                return ArrayVal.scalar(SInterval.const(count), dtype="int64")
            return ArrayVal.scalar(SInterval(SymExpr.const(0), _INF), dtype="int64")
        if attr == "shape":
            if base.shape is None:
                return _OPAQUE
            return Values(
                tuple(
                    ArrayVal.scalar(SInterval.const(d), dtype="int64")
                    if d is not None
                    else ArrayVal.scalar(SInterval(SymExpr.const(0), _INF), dtype="int64")
                    for d in base.shape
                )
            )
        if attr == "ndim":
            if base.rank is not None:
                return ArrayVal.const(base.rank)
            return _OPAQUE
        if attr == "dtype":
            return _OPAQUE
        return Method(receiver=base, node=node.value, name=attr)
    return _OPAQUE


KernelAnalyzer._attribute = _attribute


def _kwargs(self: KernelAnalyzer, node: ast.Call) -> Dict[str, Any]:
    out = {}
    for kw in node.keywords:
        if kw.arg is not None:
            out[kw.arg] = kw
    return out


def _dtype_kw(self: KernelAnalyzer, node: ast.Call) -> Optional[str]:
    for kw in node.keywords:
        if kw.arg == "dtype":
            val = self._eval(kw.value)
            if isinstance(val, DtypeCtor):
                return val.name
            if isinstance(val, NpFunc) and val.name.startswith("builtin."):
                name = val.name.split(".", 1)[1]
                if name in ("bool", "int", "float"):
                    return normalize(name)
            if (
                isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)
            ):
                return normalize(kw.value.value)
            if isinstance(kw.value, ast.Name) and kw.value.id == "bool":
                return "bool"
    return None


def _int_kw(self: KernelAnalyzer, node: ast.Call, name: str) -> Optional[int]:
    for kw in node.keywords:
        if kw.arg == name:
            val = self._eval(kw.value)
            if isinstance(val, ArrayVal):
                c = val.const_value()
                if c is not None and c.const_value is not None:
                    return c.const_value
    return None


def _out_target(self: KernelAnalyzer, node: ast.Call, result: Any) -> None:
    """Apply an ``out=`` keyword: rebind a Name, hull into a Subscript."""
    for kw in node.keywords:
        if kw.arg != "out":
            continue
        if isinstance(kw.value, ast.Name) and isinstance(result, ArrayVal):
            self.scope[kw.value.id] = result
            self._keepalive.append(result)
        elif isinstance(kw.value, ast.Subscript) and isinstance(result, ArrayVal):
            base_node = kw.value.value
            base = self._eval(base_node)
            if isinstance(base, ArrayVal) and isinstance(base_node, ast.Name):
                updated = base.with_(
                    ival=base.ival.hull(result.ival, self.env),
                    unique=False,
                    sorted_=False,
                )
                self.scope[base_node.id] = updated
                self._keepalive.append(updated)


KernelAnalyzer._kwargs = _kwargs
KernelAnalyzer._dtype_kw = _dtype_kw
KernelAnalyzer._int_kw = _int_kw
KernelAnalyzer._out_target = _out_target


def _binop(self: KernelAnalyzer, left: ArrayVal, right: ArrayVal, op: str, node: ast.AST) -> ArrayVal:
    shape, conflict = broadcast_shapes(left.shape, right.shape)
    if conflict is not None:
        self.report_broadcast(self._loc(node), conflict, f"operands of '{op}'")
    dtype = promote(left.dtype, right.dtype)
    ival = transfer.binop_ival(op, left, right, self.env)
    if is_bool(dtype) and op in ("|", "&", "^"):
        ival = SInterval.of(0, 1)
    result = ArrayVal(shape=shape, dtype=dtype, ival=ival)
    self._check_int_overflow(result, node, f"result of '{op}'")
    # combined masks inherit both sides' refinements
    if is_bool(dtype) and op == "&":
        facts = dict(self._mask_facts.get(id(left), {}))
        facts.update(self._mask_facts.get(id(right), {}))
        if facts:
            self._mask_facts[id(result)] = facts
            self._keepalive.append(result)
    return result


def _dtype_scale_bound(expr: SymExpr) -> bool:
    """Bound inherited from a dtype-range clamp, not a tight annotation.

    Declared parameter ranges in this codebase top out near ``2**40``;
    a coefficient at ``>= 2**62`` can only have entered via the
    representable-range clamp on an unannotated array, so arithmetic on
    it is "unknown magnitude", not a provable overflow.
    """
    return any(abs(c) >= 2**62 for c in expr.terms.values())


def _check_int_overflow(self: KernelAnalyzer, val: ArrayVal, node: ast.AST, what: str) -> None:
    """Flag provable integer overflow (silent when bounds are unknown)."""
    if not is_integer(val.dtype) or is_bool(val.dtype):
        return
    rng = int_range(val.dtype)
    if rng is None:
        return
    hi = val.ival.num_hi(self.env)
    lo = val.ival.num_lo(self.env)
    if hi == _INF or lo == -_INF:
        return  # unknown bounds make no claim (documented caveat)
    if hi > rng[1] and isinstance(val.ival.hi, SymExpr):
        if _dtype_scale_bound(val.ival.hi):
            return
        if find_counterexample(val.ival.hi, self.env, rng[1]) is not None:
            self.report_overflow(self._loc(node), val.ival.hi, val.dtype, what)
    elif lo < rng[0]:
        pass  # negative-direction overflow out of scope for these kernels


KernelAnalyzer._binop = _binop
KernelAnalyzer._check_int_overflow = _check_int_overflow


def _unary(self: KernelAnalyzer, node: ast.UnaryOp) -> Any:
    val = self._eval(node.operand)
    if not isinstance(val, ArrayVal):
        return _OPAQUE
    if isinstance(node.op, ast.USub):
        return val.with_(ival=val.ival.neg(), unique=val.unique, sorted_=False)
    if isinstance(node.op, ast.Invert):
        if is_bool(val.dtype):
            return val.with_(ival=SInterval.of(0, 1), unique=False, sorted_=False)
        return val.with_(
            ival=transfer.invert_ival(val, self.env), unique=val.unique, sorted_=False
        )
    if isinstance(node.op, ast.Not):
        return ArrayVal.scalar(SInterval.of(0, 1), dtype="bool")
    return _OPAQUE


KernelAnalyzer._unary = _unary


def _compare(self: KernelAnalyzer, node: ast.Compare) -> Any:
    left = self._eval(node.left)
    if len(node.ops) != 1:
        for c in node.comparators:
            self._eval(c)
        return ArrayVal.scalar(SInterval.of(0, 1), dtype="bool")
    right = self._eval(node.comparators[0])
    if not isinstance(left, ArrayVal) or not isinstance(right, ArrayVal):
        return ArrayVal.scalar(SInterval.of(0, 1), dtype="bool")
    shape, conflict = broadcast_shapes(left.shape, right.shape)
    if conflict is not None:
        self.report_broadcast(self._loc(node), conflict, "comparison operands")
    mask = ArrayVal(shape=shape, dtype="bool", ival=SInterval.of(0, 1))
    refined = self._refine(left, type(node.ops[0]), right)
    if refined is not None:
        self._mask_facts[id(mask)] = {id(left): refined}
        self._keepalive.extend((mask, left))
    return mask


def _refine(
    self: KernelAnalyzer, left: ArrayVal, op: type, right: ArrayVal
) -> Optional[SInterval]:
    """Interval for ``left``'s elements where the mask holds, if sharper."""
    if not right.is_scalar and op is not ast.NotEq:
        return None
    one = SymExpr.const(1)
    if op is ast.Lt and isinstance(right.ival.hi, SymExpr):
        bound = SInterval(-_INF, right.ival.hi - one)
    elif op is ast.LtE:
        bound = SInterval(-_INF, right.ival.hi)
    elif op is ast.Gt and isinstance(right.ival.lo, SymExpr):
        bound = SInterval(right.ival.lo + one, _INF)
    elif op is ast.GtE:
        bound = SInterval(right.ival.lo, _INF)
    elif op is ast.Eq:
        bound = right.ival
    elif op is ast.NotEq:
        c = right.const_value() if right.is_scalar else None
        if c is None:
            return None
        if isinstance(left.ival.lo, SymExpr) and left.ival.lo == c:
            return SInterval(left.ival.lo + one, left.ival.hi)
        if isinstance(left.ival.hi, SymExpr) and left.ival.hi == c:
            return SInterval(left.ival.lo, left.ival.hi - one)
        return None
    else:
        return None
    return _refined_meet(left.ival, bound, self.env)


def _refined_meet(ival: SInterval, bound: SInterval, env: ParamEnv) -> SInterval:
    """Intersection that keeps the *constraint's* symbolic end.

    Both sides' endpoints bound the intersection, so either choice is
    sound; the constraint's end (``cap - 1`` from ``rank < cap``) is
    kept unless the source's is provably tighter — a numeric collapse
    here would break later symbolic comparisons against ``cap``-sized
    dims.
    """
    from .sym import _le_end

    lo = ival.lo if _le_end(bound.lo, ival.lo, env) else bound.lo
    hi = ival.hi if _le_end(ival.hi, bound.hi, env) else bound.hi
    return SInterval(lo, hi)


KernelAnalyzer._compare = _compare
KernelAnalyzer._refine = _refine


# --------------------------------------------------------------------------
# call dispatch
# --------------------------------------------------------------------------


def _call(self: KernelAnalyzer, node: ast.Call) -> Any:
    callee = self._eval(node.func)
    if isinstance(callee, NpFunc):
        return self._np_call(callee.name, node)
    if isinstance(callee, DtypeCtor):
        return self._ctor_call(callee, node)
    if isinstance(callee, Method):
        return self._method_call(callee, node)
    if isinstance(callee, FuncRef):
        return self._func_call(callee, node)
    for a in node.args:
        self._eval(a)
    for kw in node.keywords:
        self._eval(kw.value)
    return _OPAQUE


def _shape_arg(self: KernelAnalyzer, val: Any) -> Any:
    """A shape argument: tuple of dims, or a single extent."""
    if isinstance(val, Values):
        return tuple(
            item.const_value() if isinstance(item, ArrayVal) else None
            for item in val.items
        )
    if isinstance(val, ArrayVal) and val.is_scalar:
        return (val.const_value(),)
    return None


def _as_val(x: Any) -> ArrayVal:
    return x if isinstance(x, ArrayVal) else _OPAQUE


def _cast(self: KernelAnalyzer, val: ArrayVal, dtype: str, node: ast.AST) -> ArrayVal:
    """dtype cast: keeps bounds/facts, flags provable wraparound.

    After the check the result interval is clamped to the target's
    representable range — wraparound maps into it, so the clamp is
    sound even for a flagged misfit.
    """
    result = val.with_(dtype=dtype)
    self._check_int_overflow(result, node, f"value cast to {dtype}")
    return result.with_(ival=self._clamp_dtype(result.ival, dtype))


def _kind_arg(self: KernelAnalyzer, node: ast.Call) -> Optional[str]:
    for kw in node.keywords:
        if kw.arg == "kind" and isinstance(kw.value, ast.Constant):
            return str(kw.value.value)
    return None


def _argsort_nondet(self: KernelAnalyzer, x: Any, node: ast.Call) -> None:
    """Value-aware unstable-tie check for permutation-producing sorts."""
    kind = self._kind_arg(node)
    if kind in ("stable", "mergesort"):
        return
    if isinstance(x, ArrayVal) and x.unique:
        self.prove(
            self._loc(node),
            "bare argsort is deterministic: keys provably duplicate-free",
        )
        return
    self.warn(
        "nondet-sort", self._loc(node),
        "argsort without kind='stable' on keys not provably duplicate-free: "
        "tie order is backend-dependent",
    )


def _np_call(self: KernelAnalyzer, name: str, node: ast.Call) -> Any:
    env = self.env
    args = [self._eval(a) for a in node.args]
    # builtins routed through the same sentinel
    if name.startswith("builtin."):
        return self._builtin_call(name.split(".", 1)[1], args)
    if name in ("asarray", "ascontiguousarray", "atleast_1d", "atleast_2d"):
        x = _as_val(args[0]) if args else _OPAQUE
        dtype = self._dtype_kw(node)
        return self._cast(x, dtype, node) if dtype else x
    if name == "arange":
        dtype = self._dtype_kw(node)
        if len(args) >= 2:
            return transfer.arange_val(_as_val(args[1]), env, dtype, start=_as_val(args[0]))
        return transfer.arange_val(_as_val(args[0]), env, dtype)
    if name in ("zeros", "ones", "empty", "full"):
        shape = self._shape_arg(args[0]) if args else None
        dtype = self._dtype_kw(node) or "float64"
        if name == "zeros":
            ival = SInterval.const(0)
        elif name == "ones":
            ival = SInterval.const(1)
        elif name == "full" and len(args) >= 2:
            ival = _as_val(args[1]).ival
        else:
            rng = int_range(dtype)
            ival = SInterval.of(rng[0], rng[1]) if rng else SInterval.top()
        if is_bool(dtype):
            ival = ival.meet(SInterval.of(0, 1), env)
        return transfer.filled_val(shape, dtype, ival)
    if name == "array":
        dtype = self._dtype_kw(node)
        if args and isinstance(args[0], Values):
            items = [_as_val(i) for i in args[0].items]
            ival = items[0].ival if items else SInterval.top()
            for it in items[1:]:
                ival = ival.hull(it.ival, env)
            return ArrayVal(
                shape=(SymExpr.const(len(items)),),
                dtype=dtype or (items[0].dtype if items else None),
                ival=ival,
                unique=len(items) == 1,
            )
        x = _as_val(args[0]) if args else _OPAQUE
        return self._cast(x, dtype, node) if dtype else x
    if name == "repeat":
        return transfer.repeat_val(_as_val(args[0]), _as_val(args[1]), env)
    if name == "tile":
        return transfer.tile_val(_as_val(args[0]), _as_val(args[1]), env)
    if name in ("concatenate", "hstack"):
        parts = (
            [_as_val(i) for i in args[0].items]
            if args and isinstance(args[0], Values)
            else []
        )
        axis = self._int_kw(node, "axis") or 0
        return transfer.concat_val(parts, env, axis)
    if name == "lexsort":
        keys = (
            [_as_val(i) for i in args[0].items]
            if args and isinstance(args[0], Values)
            else []
        )
        return transfer.lexsort_val(keys, env)
    if name == "argsort":
        x = _as_val(args[0]) if args else _OPAQUE
        self._argsort_nondet(x, node)
        return transfer.argsort_val(x, env, self._int_kw(node, "axis"))
    if name == "sort":
        return transfer.sort_val(_as_val(args[0]))
    if name == "unique":
        return transfer.unique_val(_as_val(args[0]), env)
    if name == "searchsorted":
        return transfer.searchsorted_val(_as_val(args[0]), _as_val(args[1]))
    if name == "take_along_axis":
        a, idx = _as_val(args[0]), _as_val(args[1])
        axis = self._int_kw(node, "axis")
        if axis is None and len(args) >= 3:
            c = _as_val(args[2]).const_value()
            axis = c.const_value if c is not None else None
        dim = None
        if a.shape is not None and axis is not None and a.rank and axis < a.rank:
            dim = a.shape[axis]
        self._check_index_bounds(idx, dim, node)
        return transfer.take_along_axis_val(a, idx)
    if name == "where":
        if len(args) >= 3:
            val, conflict = transfer.where_val(
                _as_val(args[0]), _as_val(args[1]), _as_val(args[2]), env
            )
            if conflict:
                self.report_broadcast(self._loc(node), conflict, "np.where operands")
            return val
        return _OPAQUE
    if name in ("minimum", "maximum"):
        val, conflict = transfer.minmax_val(name, _as_val(args[0]), _as_val(args[1]), env)
        if conflict:
            self.report_broadcast(self._loc(node), conflict, f"np.{name} operands")
        self._out_target(node, val)
        return val
    if name in ("maximum.accumulate", "minimum.accumulate"):
        return transfer.accumulate_val(_as_val(args[0]))
    if name == "cumsum":
        axis = self._int_kw(node, "axis")
        val = transfer.cumsum_val(_as_val(args[0]), env, axis)
        dtype = self._dtype_kw(node)
        if dtype:
            val = val.with_(dtype=dtype)
        self._check_int_overflow(val, node, "cumsum result")
        self._out_target(node, val)
        return val
    if name == "bincount":
        minlength = None
        for kw in node.keywords:
            if kw.arg == "minlength":
                m = self._eval(kw.value)
                minlength = m if isinstance(m, ArrayVal) else None
        return transfer.bincount_val(_as_val(args[0]), env, minlength)
    if name == "packbits":
        return transfer.packbits_val(_as_val(args[0]), env)
    if name == "tri":
        dtype = self._dtype_kw(node) or "float64"
        m = _as_val(args[1]) if len(args) >= 2 else _as_val(args[0])
        return transfer.tri_val(_as_val(args[0]), m, dtype)
    if name in _REDUCTIONS:
        return transfer.reduce_val(
            _as_val(args[0]), env, name, self._int_kw(node, "axis")
        )
    if name == "clip":
        x = _as_val(args[0])
        lo = _as_val(args[1]).ival.lo if len(args) >= 2 else -_INF
        hi = _as_val(args[2]).ival.hi if len(args) >= 3 else _INF
        return x.with_(
            ival=x.ival.meet(SInterval(lo, hi), env), unique=False, sorted_=x.sorted_
        )
    if name in ("flatnonzero", "nonzero"):
        x = _as_val(args[0])
        count = transfer.dim_product(x.shape)
        hi = SInterval.of(0, count).num_hi(env) if count is not None else _INF
        length = env.fresh("nz", 0, hi)
        idx = ArrayVal(
            shape=(length,), dtype="int64",
            ival=SInterval(SymExpr.const(0), count - SymExpr.const(1)) if count is not None else SInterval(SymExpr.const(0), _INF),
            unique=True, sorted_=True,
        )
        return idx if name == "flatnonzero" else Values((idx,))
    return _OPAQUE


def _builtin_call(self: KernelAnalyzer, name: str, args: List[Any]) -> Any:
    env = self.env
    if name == "int" and args and isinstance(args[0], ArrayVal):
        return ArrayVal.scalar(args[0].ival)
    if name == "len" and args and isinstance(args[0], ArrayVal):
        dim = transfer.first_dim(args[0].shape)
        if dim is not None:
            return ArrayVal.scalar(SInterval.const(dim), dtype="int64")
        return ArrayVal.scalar(SInterval(SymExpr.const(0), _INF), dtype="int64")
    if name == "bool":
        return ArrayVal.scalar(SInterval.of(0, 1), dtype="bool")
    if name == "float":
        return ArrayVal.scalar(SInterval.top())
    if name in ("min", "max") and len(args) >= 2:
        a, b = _as_val(args[0]), _as_val(args[1])
        ival = a.ival.minimum(b.ival, env) if name == "min" else a.ival.maximum(b.ival, env)
        return ArrayVal.scalar(ival)
    return _OPAQUE


def _ctor_call(self: KernelAnalyzer, ctor: DtypeCtor, node: ast.Call) -> Any:
    args = [self._eval(a) for a in node.args]
    if not args:
        return _OPAQUE
    return self._cast(_as_val(args[0]), ctor.name, node)


def _method_call(self: KernelAnalyzer, m: Method, node: ast.Call) -> Any:
    env = self.env
    name = m.name
    args = [self._eval(a) for a in node.args]
    x = m.receiver
    if name == "astype":
        dtype = None
        if args and isinstance(args[0], DtypeCtor):
            dtype = args[0].name
        elif (
            node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            dtype = normalize(node.args[0].value)
        elif args and isinstance(args[0], NpFunc) and args[0].name.startswith("builtin."):
            short = args[0].name.split(".", 1)[1]
            if short in ("bool", "int", "float"):
                dtype = normalize(short)
        if dtype is None:
            dtype = self._dtype_kw(node)
        return self._cast(x, dtype, node) if dtype else x
    if name == "view":
        if args and isinstance(args[0], DtypeCtor):
            return transfer.view_val(x, args[0].name)
        return _OPAQUE
    if name == "ravel":
        return transfer.ravel_val(x)
    if name == "reshape":
        shape_arg = (
            self._shape_arg(args[0])
            if len(args) == 1 and isinstance(args[0], Values)
            else self._shape_arg(Values(tuple(args)))
        )
        return self._reshape(x, shape_arg)
    if name == "copy":
        return x.with_(base=None)
    if name == "sort":
        # in-place value sort: always deterministic (ties are equal values)
        if isinstance(m.node, ast.Name):
            updated = transfer.sort_val(x)
            self.scope[m.node.id] = updated
            self._keepalive.append(updated)
        return None
    if name == "argsort":
        self._argsort_nondet(x, node)
        return transfer.argsort_val(x, env, self._int_kw(node, "axis"))
    if name in _REDUCTIONS:
        return transfer.reduce_val(x, env, name, self._int_kw(node, "axis"))
    if name == "item":
        return ArrayVal.scalar(x.ival, dtype=x.dtype)
    if name == "fill":
        if isinstance(m.node, ast.Name) and args:
            updated = x.with_(ival=_as_val(args[0]).ival, unique=False, sorted_=False)
            self.scope[m.node.id] = updated
            self._keepalive.append(updated)
        return None
    return _OPAQUE


def _reshape(self: KernelAnalyzer, x: ArrayVal, shape_arg: Any) -> ArrayVal:
    if shape_arg is None:
        return ArrayVal(shape=None, dtype=x.dtype, ival=x.ival, base=x.base)
    dims = list(shape_arg)
    total = transfer.dim_product(x.shape)
    holes = [i for i, d in enumerate(dims) if d is not None and d.const_value == -1]
    if len(holes) == 1 and total is not None:
        known = SymExpr.const(1)
        ok = True
        for i, d in enumerate(dims):
            if i == holes[0]:
                continue
            if d is None:
                ok = False
                break
            known = known * d
        if ok:
            div = total.floordiv(known, self.env) if known.const_value != 1 else (total, total)
            dims[holes[0]] = div[0] if div is not None and div[0] == div[1] else None
        else:
            dims[holes[0]] = None
    return ArrayVal(
        shape=tuple(dims), dtype=x.dtype, ival=x.ival, unique=x.unique, base=x.base
    )


def _func_call(self: KernelAnalyzer, ref: FuncRef, node: ast.Call) -> Any:
    args = [self._eval(a) for a in node.args]
    summary = transfer.SUMMARIES.get(ref.qualname)
    if summary is not None:
        argvals = [_as_val(a) for a in args]
        result = summary(self, self._loc(node), argvals)
        if isinstance(result, tuple):
            return Values(result)
        return result
    ann = get_annotation(ref.qualname)
    if ann is not None:
        return self._contract_call(ann, args)
    return _OPAQUE


def _single_var(expr: SymExpr) -> Optional[str]:
    """The name when ``expr`` is exactly one bare parameter."""
    if len(expr.terms) != 1:
        return None
    (mono, coeff), = expr.terms.items()
    if coeff == 1 and len(mono) == 1 and mono[0][1] == 1:
        return mono[0][0]
    return None


def _contract_call(self: KernelAnalyzer, ann: KernelAnnotation, args: List[Any]) -> Any:
    """Instantiate an annotated callee's returns contract at this site.

    Single-parameter dims and exact scalars unify against the actual
    abstract values; parameters left unbound get fresh symbols carrying
    the callee's declared range (assume-guarantee: argument
    preconditions are trusted, not re-checked here).
    """
    bindings: Dict[str, SymExpr] = {}
    try:
        formals = [
            p.name
            for p in inspect.signature(ann.func).parameters.values()
            if p.kind
            in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        ]
    except (ValueError, TypeError):
        formals = []
    for formal, actual in zip(formals, args):
        spec = ann.args.get(formal)
        if not isinstance(actual, ArrayVal):
            continue
        if isinstance(spec, ScalarSpec) and spec.expr is not None:
            name = _single_var(parse_expr(spec.expr))
            cv = actual.const_value()
            if name and name not in bindings and cv is not None:
                bindings[name] = cv
        elif isinstance(spec, ArraySpec) and spec.dims and actual.shape is not None:
            for dim_expr, adim in zip(spec.dims, actual.shape):
                name = _single_var(parse_expr(dim_expr))
                if name and name not in bindings and adim is not None:
                    bindings[name] = adim
    for pname, (lo, hi) in ann.params.items():
        if pname not in bindings:
            bindings[pname] = self.env.fresh(pname, lo, hi)

    def inst(text) -> SymExpr:
        return parse_expr(text).subst(bindings)

    results = []
    for spec in ann.returns:
        if isinstance(spec, ArraySpec):
            dims = (
                tuple(inst(d) for d in spec.dims) if spec.dims is not None else None
            )
            lo = inst(spec.lo) if spec.lo is not None else -_INF
            hi = inst(spec.hi) if spec.hi is not None else _INF
            results.append(
                ArrayVal(
                    shape=dims,
                    dtype=normalize(spec.dtype),
                    ival=SInterval(lo, hi),
                    unique=spec.unique,
                    sorted_=spec.sorted_,
                )
            )
        elif isinstance(spec, ScalarSpec):
            if spec.expr is not None:
                ival = SInterval.const(inst(spec.expr))
            else:
                ival = SInterval(
                    inst(spec.lo) if spec.lo is not None else -_INF,
                    inst(spec.hi) if spec.hi is not None else _INF,
                )
            results.append(ArrayVal.scalar(ival, dtype=normalize(spec.dtype)))
        else:
            results.append(_OPAQUE)
    if not results:
        return _OPAQUE
    if len(results) == 1:
        return results[0]
    return Values(tuple(results))


KernelAnalyzer._call = _call
KernelAnalyzer._shape_arg = _shape_arg
KernelAnalyzer._cast = _cast
KernelAnalyzer._kind_arg = _kind_arg
KernelAnalyzer._argsort_nondet = _argsort_nondet
KernelAnalyzer._np_call = _np_call
KernelAnalyzer._builtin_call = _builtin_call
KernelAnalyzer._ctor_call = _ctor_call
KernelAnalyzer._method_call = _method_call
KernelAnalyzer._reshape = _reshape
KernelAnalyzer._func_call = _func_call
KernelAnalyzer._contract_call = _contract_call


def analyze_kernel(annotation: KernelAnnotation) -> Tuple[List[Finding], List[str]]:
    """Run the abstract interpreter over one annotated kernel."""
    analyzer = KernelAnalyzer(annotation)
    findings = analyzer.run()
    return findings, analyzer.proven

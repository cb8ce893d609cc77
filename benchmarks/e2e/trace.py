"""Bench-owned tracing: spans around calls into each layer, from outside.

Nothing under ``src/`` knows about this.  While a traced operation runs, the
layer boundaries listed in :data:`_METHODS` / :data:`_FUNCTIONS` are replaced by
wrappers that record one span per call; they are put back when it ends, and
the untraced path never imports this file.  Only synchronous calls are
wrapped (a coroutine's span would stay open across ``await``), so spans nest
strictly and a parent is recoverable from exit order and depth alone — which
keeps a span at two clock reads, one tuple and one list append.

A span is ``(name, start, end, depth, operation id, argument)`` while
recording; :meth:`Tracer.analyse` adds the parent index, self times
(duration minus children) and the accounting checks.

Inside a lockstep round the two queue merges and the three key-packing
helpers are called seven times and take 3-30 us each; a span on every call
cost serve_loadtest 5 % (measured, 56 call pairs).  So those five are wrapped
only for one ``search_batch`` call in :data:`DETAIL_EVERY` (its span is named
``core.search_batch+``), and :meth:`Tracer.shares` splits the self time of the
other calls in the proportions the detailed ones show.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.batched import BatchedSongSearcher
from repro.core.song import SearchStats
from repro.distances.metrics import Metric
from repro.serve.engine import SimulatedGpuEngine
from repro.simt.streams import DeviceTimeline, StreamScheduler
from repro.structures.soa import BatchedFrontier, BatchedTopK
from repro.tiered.codes import BitCodeStore, PQCodeStore
from repro.tiered.engine import TieredServeEngine

ROOT = "op"
SEARCH, DETAILED = "core.search_batch", "core.search_batch+"
DETAIL_EVERY = 4

# (owner class, attribute, span name, calls other traced boundaries?)
_METHODS = [
    (Metric, "pairwise", "distances.pairwise", False),
    (Metric, "pair_many", "distances.pair_many", False),
    (SimulatedGpuEngine, "run_batch", "serve.engine.run_batch", True),
    (SimulatedGpuEngine, "chunked_batch", "serve.engine.chunked_batch", True),
    (SimulatedGpuEngine, "chunk_work", "serve.engine.chunk_work", False),
    (DeviceTimeline, "submit_batch", "simt.submit_batch", False),
    (StreamScheduler, "schedule_chunks", "simt.schedule_chunks", False),
    (TieredServeEngine, "run_batch", "tiered.run_batch", True),
    (BitCodeStore, "encode_queries", "tiered.encode_queries", False),
    (PQCodeStore, "encode_queries", "tiered.encode_queries", False),
]

# (defining module, function, span name, nests?): re-bound in every loaded
# module that imported the function by name, the benchmark's own included.
_FUNCTIONS = [
    ("repro.graphs", "build_graph", "graphs.build_graph", True),
    ("repro.serve.clock", "run_virtual", "serve.run_virtual", True),
]

# Boundaries inside a lockstep round, wrapped for detailed searches only.
_ROUND_METHODS = [
    (BatchedFrontier, "merge", "structures.frontier_merge"),
    (BatchedTopK, "merge", "structures.topk_merge"),
]
_ROUND_FUNCTIONS = [
    ("repro.structures.soa", "pack_keys", "structures.pack_keys"),
    ("repro.structures.soa", "unpack_distances", "structures.unpack_distances"),
    ("repro.structures.soa", "unpack_ids", "structures.unpack_ids"),
]
ROUND_SPANS = tuple(name for *_, name in _ROUND_METHODS + _ROUND_FUNCTIONS)

#: Which per-layer share each span name's self time is charged to.
SHARE_OF = {
    ROOT: "trace.unattributed_share",
    SEARCH: "core.search_self_share",
    DETAILED: "core.search_self_share",
    "distances.batch_many": "distances.batch_many_share",
    "distances.pairwise": "distances.pairwise_share",
    "distances.pair_many": "distances.pairwise_share",
    "structures.frontier_merge": "structures.frontier_merge_share",
    "structures.topk_merge": "structures.topk_merge_share",
    "structures.pack_keys": "structures.pack_unpack_share",
    "structures.unpack_distances": "structures.pack_unpack_share",
    "structures.unpack_ids": "structures.pack_unpack_share",
    "serve.run_virtual": "serve.loop_self_share",
    "serve.engine.run_batch": "serve.engine_run_batch_share",
    "serve.engine.chunked_batch": "serve.engine_run_batch_share",
    "serve.engine.chunk_work": "serve.pricing_share",
    "simt.submit_batch": "simt.timeline_submit_share",
    "simt.schedule_chunks": "simt.timeline_submit_share",
    "tiered.run_batch": "tiered.rerank_self_share",
    "tiered.encode_queries": "tiered.encode_share",
    "graphs.build_graph": "graphs.build_self_share",
}

_ACCOUNTING_TOLERANCE = 0.02


class TraceError(RuntimeError):
    """The recorded spans do not add up."""


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Tuple[str, float, float, int, int, int]] = []
        self._depth = [0]
        self._op = [0]
        self._in_search = [0]
        #: Counts taken at the same boundaries as the spans.
        self.counts: Dict[str, int] = {
            "search.calls": 0,
            "search.lanes": 0,
            "search.rounds": 0,
            "search.lane_rounds": 0,
            "search.iterations": 0,
            "search.distance_computations": 0,
            "search.visited_inserts": 0,
            "batch_many.calls": 0,
            "batch_many.rows": 0,
            "batch_many.rows_in_search": 0,
        }
        self._round_targets = self._resolve_round()
        self._targets = self._resolve()
        self._installed = False

    # -- wrappers ----------------------------------------------------------

    def _nesting(self, fn: Callable, name: str) -> Callable:
        """A boundary that may call other traced boundaries: tracks depth."""
        depth, op, append, clock = self._depth, self._op, self.spans.append, time.perf_counter

        def traced(*args, **kwargs):
            d = depth[0]
            depth[0] = d + 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[0] = d
                append((name, t0, t1, d, op[0], 0))

        return traced

    def _leaf(self, fn: Callable, name: str) -> Callable:
        """A boundary that calls no other traced boundary: depth is only read."""
        depth, op, append, clock = self._depth, self._op, self.spans.append, time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            append((name, t0, clock(), depth[0], op[0], 0))
            return result

        return traced

    def _batch_many(self, fn: Callable, name: str) -> Callable:
        depth, op, append, clock = self._depth, self._op, self.spans.append, time.perf_counter
        counts, in_search = self.counts, self._in_search

        def traced(self_, queries, points, norms=None):
            t0 = clock()
            result = fn(self_, queries, points, norms)
            t1 = clock()
            rows = points.shape[0] * points.shape[1]
            counts["batch_many.calls"] += 1
            counts["batch_many.rows"] += rows
            if in_search[0]:
                counts["batch_many.rows_in_search"] += rows
            append((name, t0, t1, depth[0], op[0], rows))
            return result

        return traced

    def _search(self, fn: Callable) -> Callable:
        depth, op, append, clock = self._depth, self._op, self.spans.append, time.perf_counter
        counts, in_search, round_targets = self.counts, self._in_search, self._round_targets

        def traced(self_, queries, config, meter=None, stats=None, entry_points=None):
            detailed = counts["search.calls"] % DETAIL_EVERY == 0
            if detailed:
                for owner, attr, _, wrapper in round_targets:
                    setattr(owner, attr, wrapper)
            # Builders search without stats; the counts need them, so the
            # traced pass supplies a list (O(B) extra, booked as overhead).
            lanes = len(queries)
            own = stats if stats is not None else [SearchStats() for _ in range(lanes)]
            before = [(s.iterations, s.distance_computations, s.visited_inserts) for s in own]
            d = depth[0]
            depth[0] = d + 1
            in_search[0] += 1
            t0 = clock()
            try:
                return fn(self_, queries, config, meter=meter, stats=own, entry_points=entry_points)
            finally:
                t1 = clock()
                in_search[0] -= 1
                depth[0] = d
                append((DETAILED if detailed else SEARCH, t0, t1, d, op[0], lanes))
                if detailed:
                    for owner, attr, original, _ in round_targets:
                        setattr(owner, attr, original)
                iters = [s.iterations - b[0] for s, b in zip(own, before)]
                rounds = max(iters, default=0)
                counts["search.calls"] += 1
                counts["search.lanes"] += lanes
                counts["search.rounds"] += rounds
                counts["search.lane_rounds"] += lanes * rounds
                counts["search.iterations"] += sum(iters)
                counts["search.distance_computations"] += sum(
                    s.distance_computations - b[1] for s, b in zip(own, before)
                )
                counts["search.visited_inserts"] += sum(
                    s.visited_inserts - b[2] for s, b in zip(own, before)
                )

        return traced

    # -- install / uninstall -----------------------------------------------

    def _module_bindings(self, module_name: str, attr: str, wrapper_of: Callable):
        """``(module, attr, original, wrapper)`` wherever the function is bound."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrapper_of(original)
        return [
            (module, attr, original, wrapper)
            for module in list(sys.modules.values())
            if module is not None and module.__dict__.get(attr) is original
        ]

    def _resolve_round(self) -> List[Tuple[object, str, Callable, Callable]]:
        targets = []
        for owner, attr, name in _ROUND_METHODS:
            original = owner.__dict__[attr]
            targets.append((owner, attr, original, self._leaf(original, name)))
        for module_name, attr, name in _ROUND_FUNCTIONS:
            targets += self._module_bindings(module_name, attr, lambda fn: self._leaf(fn, name))
        return targets

    def _resolve(self) -> List[Tuple[object, str, Callable, Callable]]:
        """``(owner, attribute, original, wrapper)`` for every boundary."""
        search = BatchedSongSearcher.__dict__["search_batch"]
        batch_many = Metric.__dict__["batch_many"]
        targets = [
            (BatchedSongSearcher, "search_batch", search, self._search(search)),
            (Metric, "batch_many", batch_many, self._batch_many(batch_many, "distances.batch_many")),
        ]
        for owner, attr, name, nests in _METHODS:
            original = owner.__dict__[attr]
            make = self._nesting if nests else self._leaf
            targets.append((owner, attr, original, make(original, name)))
        for module_name, attr, name, nests in _FUNCTIONS:
            make = self._nesting if nests else self._leaf
            targets += self._module_bindings(module_name, attr, lambda fn: make(fn, name))
        return targets

    def install(self, op: int) -> None:
        if self._installed:
            raise TraceError("tracer already installed")
        self._op[0] = op
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)
        self._installed = False

    def root(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as a root span (one per timed call of the operation)."""
        if self._depth[0] != 0:
            raise TraceError("root span opened inside another span")
        self._depth[0] = 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._depth[0] = 0
            self.spans.append((ROOT, t0, t1, 0, self._op[0], 0))

    # -- analysis ------------------------------------------------------------

    def analyse(self) -> Dict[str, object]:
        """Self times per span name, with the accounting checks applied.

        Raises :class:`TraceError` when a self time is negative, a child
        sticks out of its parent, or the self times miss the root spans'
        durations by more than 2 %.
        """
        spans = self.spans
        parents: List[int] = [-1] * len(spans)
        pending: Dict[int, List[int]] = {}
        self_time: Dict[str, float] = {}
        inclusive: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        root_total = 0.0
        slack = 1e-7
        for i, (name, t0, t1, depth, _, _) in enumerate(spans):
            children = pending.pop(depth + 1, [])
            child_time = 0.0
            for c in children:
                child_name, c0, c1, _, _, _ = spans[c]
                if c0 < t0 - slack or c1 > t1 + slack:
                    raise TraceError(f"span {child_name} sticks out of its parent {name}")
                child_time += c1 - c0
                parents[c] = i
            own = (t1 - t0) - child_time
            if own < -slack:
                raise TraceError(f"negative self time {own:.3e} in {name}")
            self_time[name] = self_time.get(name, 0.0) + own
            inclusive[name] = inclusive.get(name, 0.0) + (t1 - t0)
            calls[name] = calls.get(name, 0) + 1
            pending.setdefault(depth, []).append(i)
            if depth == 0:
                if name != ROOT:
                    raise TraceError(f"span {name} recorded outside any operation")
                root_total += t1 - t0
        if any(d != 0 for d in pending):
            raise TraceError("spans left without a parent")
        attributed = sum(self_time.values())
        if root_total <= 0.0 or abs(attributed - root_total) > _ACCOUNTING_TOLERANCE * root_total:
            raise TraceError(
                f"self times {attributed:.6f}s miss the root spans {root_total:.6f}s"
            )
        return {
            "self": self_time,
            "inclusive": inclusive,
            "calls": calls,
            "root_total": root_total,
            "parents": parents,
        }

    def shares(self, analysis: Optional[Dict[str, object]] = None) -> Dict[str, float]:
        """Per-layer share metrics (self time over the traced operations' time).

        Only detailed searches show what the round boundaries took; the self
        time of the others is split in the same proportions.
        """
        a = analysis or self.analyse()
        seconds = dict(a["self"])
        plain, detailed = seconds.get(SEARCH, 0.0), seconds.pop(DETAILED, 0.0)
        inside = {name: seconds.get(name, 0.0) for name in ROUND_SPANS}
        whole = detailed + sum(inside.values())
        if whole > 0.0:
            for name, value in inside.items():
                seconds[name] = value + plain * value / whole
            seconds[SEARCH] = detailed + plain * detailed / whole
        out = {share: 0.0 for share in SHARE_OF.values()}
        for name, value in seconds.items():
            out[SHARE_OF[name]] += value / a["root_total"]
        return out

    def write_chrome_trace(self, path: str) -> None:
        """Chrome-trace JSON (``chrome://tracing`` / Perfetto), one row per operation."""
        if not self.spans:
            return
        parents = self.analyse()["parents"]
        base = min(s[1] for s in self.spans)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": round(1e6 * (t0 - base), 3),
                "dur": round(1e6 * (t1 - t0), 3),
                "pid": 1,
                "tid": op,
                "args": {"depth": depth, "parent": parents[i], "arg": arg},
            }
            for i, (name, t0, t1, depth, op, arg) in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)

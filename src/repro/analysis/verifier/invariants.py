"""Symbolic checks of SONG's Theorem 1–3 data-structure invariants.

The paper's memory optimizations rest on three claims:

**Theorem 1 (bounded queue).** Capping the frontier queue ``q`` at
``K = queue_size`` entries and evicting the maximum on overflow never
changes the search result; in particular ``|q| ≤ K`` always holds and
every eviction is exactly the queue's current maximum.

**Theorem 2 (selected insertion).** Once ``topk`` is full, a candidate
at distance ≥ the current top-K bound can never enter the final result,
so it is neither marked visited nor enqueued.

**Theorem 3 (visited deletion).** With a deletable filter, a vertex is
removed from ``visited`` the moment it leaves ``q ∪ topk``; therefore
``visited ⊆ q ∪ topk`` and ``|visited| ≤ 2K`` throughout the search.

:func:`check_bounded_queue` model-checks Theorem 1 against the real
:class:`~repro.structures.minmax_heap.BoundedPriorityQueue` by
bounded-exhaustive enumeration of operation sequences against a sorted
reference model (including the min-max heap's structural level
property).  :func:`check_search_invariants` proves Theorems 1–3 over
the *actual stage loop*: it instruments :class:`~repro.core.song.
SongSearcher` (the production descendant of ``core/algorithm1.py``)
with a recording subclass that snapshots the structures at every
iteration boundary, runs real searches, and validates every recorded
state.  Both checkers accept
injectable structure/searcher classes so the refutation tests can prove
they fire on deliberately broken variants.

All findings carry ``error`` severity: an invariant violation means the
paper's correctness argument does not hold for this code.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.findings import Finding, Severity
from repro.core.config import SearchConfig
from repro.core.song import SongSearcher
from repro.graphs.bruteforce_knn import build_knn_graph
from repro.structures.minmax_heap import BoundedPriorityQueue, _is_min_level
from repro.structures.visited import VisitedBackend

__all__ = [
    "check_bounded_queue",
    "check_search_invariants",
    "check_all_invariants",
]


def _finding(rule: str, location: str, message: str) -> Finding:
    return Finding(rule=rule, severity=Severity.ERROR, location=location, message=message)


# --------------------------------------------------------------------------
# Theorem 1: bounded-exhaustive model check of the queue structure
# --------------------------------------------------------------------------


def _heap_property_violation(items: Sequence[Tuple[float, int]]) -> Optional[str]:
    """Check the min-max level property over the flat array, if exposed."""
    for i, entry in enumerate(items):
        j = (i - 1) >> 1
        while j >= 0:
            anc = items[j]
            if _is_min_level(j) and entry < anc:
                return f"index {i} {entry} below min-level ancestor {j} {anc}"
            if not _is_min_level(j) and entry > anc:
                return f"index {i} {entry} above max-level ancestor {j} {anc}"
            j = (j - 1) >> 1 if j else -1
    return None


def check_bounded_queue(
    queue_factory: Optional[Callable[[int], object]] = None,
    capacity: int = 3,
    depth: int = 5,
    values: Iterable[float] = (0.5, 1.5, 2.5, 3.5),
    max_findings: int = 3,
) -> List[Finding]:
    """Model-check Theorem 1 on the bounded queue implementation.

    Enumerates every operation sequence of length ``depth`` over
    ``push(v)`` for each value plus ``pop_min`` / ``pop_max``, replaying
    each against a sorted-list reference model, and reports any state
    where ``|q|`` exceeds ``capacity``, an eviction is not the true
    maximum, a pop/peek disagrees with the model, or the min-max heap's
    level property is broken.  Pass a broken ``queue_factory`` to watch
    it fire (the refutation tests do).
    """
    factory = queue_factory or BoundedPriorityQueue
    loc = "structures/minmax_heap.py:BoundedPriorityQueue"
    findings: List[Finding] = []
    ops: List[Tuple[str, Optional[float]]] = [("push", v) for v in values]
    ops += [("pop_min", None), ("pop_max", None)]

    for sequence in itertools.product(ops, repeat=depth):
        queue = factory(capacity)
        model: List[Tuple[float, int]] = []
        trace: List[str] = []
        next_id = 0
        for op, value in sequence:
            if op == "push":
                assert value is not None
                entry = (value, next_id)
                next_id += 1
                trace.append(f"push{entry}")
                evicted = queue.push(*entry)
                if len(model) < capacity:
                    model.append(entry)
                    expected = None
                elif entry >= max(model):
                    expected = entry
                else:
                    expected = max(model)
                    model.remove(expected)
                    model.append(entry)
                model.sort()
                if evicted != expected:
                    findings.append(_finding(
                        "invariant-bounded-queue", loc,
                        f"eviction mismatch after {' '.join(trace)}: "
                        f"got {evicted}, expected {expected}",
                    ))
            else:
                if not model:
                    continue  # popping empty is out of the theorem's scope
                trace.append(op)
                expected = model.pop(0 if op == "pop_min" else -1)
                got = queue.pop_min() if op == "pop_min" else queue.pop_max()
                if got != expected:
                    findings.append(_finding(
                        "invariant-bounded-queue", loc,
                        f"{op} mismatch after {' '.join(trace)}: "
                        f"got {got}, expected {expected}",
                    ))
            if len(queue) > capacity:
                findings.append(_finding(
                    "invariant-bounded-queue", loc,
                    f"|q| = {len(queue)} exceeds capacity {capacity} "
                    f"after {' '.join(trace)} (Theorem 1 violated)",
                ))
            if len(queue) != len(model):
                findings.append(_finding(
                    "invariant-bounded-queue", loc,
                    f"size drift after {' '.join(trace)}: "
                    f"|q| = {len(queue)}, model has {len(model)}",
                ))
            heap = getattr(queue, "_heap", None)
            items = getattr(heap, "_items", None)
            if items is not None:
                why = _heap_property_violation(items)
                if why is not None:
                    findings.append(_finding(
                        "invariant-bounded-queue", loc,
                        f"min-max level property broken after "
                        f"{' '.join(trace)}: {why}",
                    ))
            if len(findings) >= max_findings:
                return findings
        if model and len(findings) < max_findings:
            sorted_q = sorted(queue.to_sorted_list())
            if sorted_q != model:
                findings.append(_finding(
                    "invariant-bounded-queue", loc,
                    f"content mismatch after {' '.join(trace)}: "
                    f"queue {sorted_q}, model {model}",
                ))
    return findings


# --------------------------------------------------------------------------
# Theorems 1–3 over the real stage loop
# --------------------------------------------------------------------------


class _Recorder:
    """Mutable record the monitored searcher fills in."""

    def __init__(self) -> None:
        self.frontier = None
        self.topk = None
        self.visited = None
        self.push_events: List[Tuple[float, bool, float]] = []
        self.snapshots: List[Tuple[int, int, bool, int]] = []
        # (|frontier|, |visited|, visited ⊆ q ∪ topk, iteration index)
        self._iteration = 0

    def snapshot(self) -> None:
        if self.frontier is None or self.topk is None or self.visited is None:
            return
        in_structures = {v for _, v in self.topk.to_sorted_list()}
        in_structures |= {v for _, v in self.frontier.to_sorted_list()}
        subset = set(self.visited._shadow) <= in_structures
        self.snapshots.append(
            (len(self.frontier), len(self.visited), subset, self._iteration)
        )
        self._iteration += 1


def _monitored(searcher_cls: type) -> type:
    """A subclass of ``searcher_cls`` that records structure states."""

    class _Monitored(searcher_cls):  # type: ignore[misc, valid-type]
        _recorder: _Recorder
        #: Set by every maintenance push, cleared by the next pop: the
        #: first pop after maintenance opens a new iteration.
        _maintained = False

        def _make_frontier(self, config):
            frontier = searcher_cls._make_frontier(config)
            self._recorder.frontier = frontier
            return frontier

        def _frontier_pop(self, frontier):
            if self._maintained:
                self._recorder.snapshot()
                self._maintained = False
            return searcher_cls._frontier_pop(frontier)

        def _frontier_push(self, frontier, dist, vertex, topk, visited, config, stats):
            self._maintained = True
            self._recorder.topk = topk
            self._recorder.visited = visited
            self._recorder.push_events.append(
                (dist, topk.is_full(), topk.worst_distance() if len(topk) else float("inf"))
            )
            super()._frontier_push(frontier, dist, vertex, topk, visited, config, stats)

        def _topk_push(self, topk, dist, vertex, visited, config, stats):
            self._maintained = True
            self._recorder.topk = topk
            self._recorder.visited = visited
            super()._topk_push(topk, dist, vertex, visited, config, stats)

    return _Monitored


def check_search_invariants(
    config: Optional[SearchConfig] = None,
    searcher_cls: type = SongSearcher,
    num_points: int = 96,
    num_queries: int = 6,
    dim: int = 8,
    seed: int = 5,
    max_findings: int = 4,
) -> List[Finding]:
    """Prove Theorems 1–3 over recorded runs of the real search loop.

    Builds a small exact kNN graph, runs ``num_queries`` searches through
    an instrumented ``searcher_cls``, and checks every recorded state:

    * Theorem 1 — ``|q| ≤ queue_size`` at every iteration boundary;
    * Theorem 2 — no frontier push ever carried a distance ≥ the current
      top-K bound while ``topk`` was full;
    * Theorem 3 — ``visited ⊆ q ∪ topk`` and ``|visited| ≤ 2·queue_size``
      at every iteration boundary (requires an exact deletable backend).

    Pass a config with an optimization disabled (or a searcher/structure
    subclass with the maintenance logic broken) and the corresponding
    check fires — that is exactly what the refutation tests do.
    """
    if config is None:
        config = SearchConfig(
            k=8,
            queue_size=12,
            bounded_queue=True,
            selected_insertion=True,
            visited_deletion=True,
            visited_backend=VisitedBackend.HASH_TABLE,
        )
    loc = "core/song.py:SongSearcher.search"
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((num_points, dim)).astype(np.float32)
    queries = rng.standard_normal((num_queries, dim)).astype(np.float32)
    graph = build_knn_graph(data, k=8)

    findings: List[Finding] = []
    for qi, query in enumerate(queries):
        recorder = _Recorder()
        searcher = _monitored(searcher_cls)(graph, data)
        searcher._recorder = recorder
        searcher.search(query, config)
        # Snapshots are taken only at locate boundaries: after the final
        # iteration's stop-break the discarded vertex legitimately lingers
        # in visited (the search is over, nothing reads the filter again).

        for frontier_len, visited_len, subset, iteration in recorder.snapshots:
            if frontier_len > config.queue_size:
                findings.append(_finding(
                    "invariant-bounded-queue", loc,
                    f"query {qi} iteration {iteration}: |q| = {frontier_len} "
                    f"exceeds K = {config.queue_size} (Theorem 1)",
                ))
                break
        for visited_len in (v for _, v, _, _ in recorder.snapshots):
            if visited_len > 2 * config.queue_size:
                findings.append(_finding(
                    "invariant-visited-deletion", loc,
                    f"query {qi}: |visited| = {visited_len} exceeds "
                    f"2K = {2 * config.queue_size} (Theorem 3)",
                ))
                break
        for frontier_len, visited_len, subset, iteration in recorder.snapshots:
            if not subset:
                findings.append(_finding(
                    "invariant-visited-deletion", loc,
                    f"query {qi} iteration {iteration}: visited ⊄ q ∪ topk "
                    f"(Theorem 3: a vertex left both structures without "
                    f"being deleted from the filter)",
                ))
                break
        for dist, was_full, bound in recorder.push_events:
            if was_full and dist >= bound:
                findings.append(_finding(
                    "invariant-selected-insertion", loc,
                    f"query {qi}: enqueued a vertex at distance {dist:.4f} ≥ "
                    f"top-K bound {bound:.4f} while topk was full (Theorem 2)",
                ))
                break
        if len(findings) >= max_findings:
            break
    return findings


def check_all_invariants() -> List[Finding]:
    """The Theorem 1–3 pass ``python -m repro.analysis --verify`` runs."""
    return check_bounded_queue() + check_search_invariants()

"""Paired pass/refutation tests for the Theorem 1–3 invariant checkers.

Each checker must (a) prove the unmutated implementation clean and
(b) fire on a deliberately broken variant — a checker that cannot refute
anything proves nothing.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verifier.invariants import (
    _NeverEvicts,
    check_all_invariants,
    check_bounded_queue,
    check_search_invariants,
)
from repro.core.config import SearchConfig
from repro.structures.minmax_heap import BoundedPriorityQueue, SymmetricMinMaxHeap
from repro.structures.visited import VisitedBackend


def rules(findings):
    return {f.rule for f in findings}


def _config(**overrides):
    base = dict(
        k=8,
        queue_size=12,
        bounded_queue=True,
        selected_insertion=True,
        visited_deletion=True,
        visited_backend=VisitedBackend.HASH_TABLE,
    )
    base.update(overrides)
    return SearchConfig(**base)


# -- broken structure variants the refutation tests inject -----------------


class _EvictsMin(BoundedPriorityQueue):
    """Evicts the *minimum* on overflow — keeps the worst candidates."""

    def push(self, dist, vertex):
        if len(self._heap) < self.capacity:
            self._heap.push(dist, vertex)
            return None
        evicted = self._heap.pop_min()
        self._heap.push(dist, vertex)
        return evicted


class _NoSiftHeap(SymmetricMinMaxHeap):
    """Appends without restoring the min-max level property."""

    def push(self, dist, vertex):
        self._items.append((dist, vertex))


class _BrokenHeapQueue(BoundedPriorityQueue):
    def __init__(self, capacity):
        super().__init__(capacity)
        self._heap = _NoSiftHeap()


# -- Theorem 1: queue model check ------------------------------------------


class TestBoundedQueueCheck:
    def test_real_queue_passes(self):
        assert check_bounded_queue() == []

    def test_missing_eviction_is_refuted(self):
        findings = check_bounded_queue(queue_factory=_NeverEvicts)
        assert rules(findings) == {"invariant-bounded-queue"}
        assert any("exceeds capacity" in f.message for f in findings)

    def test_wrong_eviction_side_is_refuted(self):
        findings = check_bounded_queue(queue_factory=_EvictsMin)
        assert rules(findings) == {"invariant-bounded-queue"}

    def test_broken_heap_order_is_refuted(self):
        findings = check_bounded_queue(queue_factory=_BrokenHeapQueue)
        assert rules(findings) == {"invariant-bounded-queue"}
        assert any("level property" in f.message or "mismatch" in f.message
                   for f in findings)

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0,
                              allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_queue_matches_model_on_random_pushes(self, dists):
        """Property form of Theorem 1: after any push sequence the queue
        holds exactly the ``capacity`` smallest entries and every
        overflow eviction is the true maximum at that moment."""
        capacity = 4
        queue = BoundedPriorityQueue(capacity)
        model = []
        for i, dist in enumerate(dists):
            entry = (dist, i)
            evicted = queue.push(*entry)
            if len(model) < capacity:
                model.append(entry)
                assert evicted is None
            elif entry >= max(model):
                assert evicted == entry
            else:
                assert evicted == max(model)
                model.remove(max(model))
                model.append(entry)
            assert len(queue) <= capacity
            assert queue.to_sorted_list() == sorted(model)


# -- Theorems 1–3 over the real stage loop ---------------------------------


class TestSearchInvariants:
    def test_production_loop_passes(self):
        assert check_search_invariants(config=_config()) == []

    def test_unbounded_frontier_is_refuted(self):
        """Theorem 1 refutation: disabling the bounded queue lets |q|
        exceed K on dense neighborhoods."""
        findings = check_search_invariants(config=_config(bounded_queue=False))
        assert "invariant-bounded-queue" in rules(findings)

    def test_unselective_insertion_is_refuted(self):
        """Theorem 2 refutation: without selected insertion the loop
        enqueues candidates at distance ≥ the top-K bound."""
        findings = check_search_invariants(
            config=_config(selected_insertion=False)
        )
        assert rules(findings) == {"invariant-selected-insertion"}

    def test_missing_deletion_is_refuted(self):
        """Theorem 3 refutation: without visited deletion the filter
        outgrows 2K and stops being a subset of q ∪ topk."""
        findings = check_search_invariants(
            config=_config(visited_deletion=False)
        )
        assert rules(findings) == {"invariant-visited-deletion"}

    def test_default_entrypoint_is_clean(self):
        """What the CI gate actually runs."""
        assert check_all_invariants() == []

"""Min-max heap / bounded priority queue tests (hypothesis-heavy)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.minmax_heap import BoundedPriorityQueue, SymmetricMinMaxHeap

entries = st.lists(
    st.tuples(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=10**6),
    ),
    max_size=150,
)


class TestSymmetricMinMaxHeap:
    def test_min_and_max_simple(self):
        h = SymmetricMinMaxHeap()
        for d in [4.0, 1.0, 3.0, 2.0]:
            h.push(d, int(d))
        assert h._items[0] == (1.0, 1)
        assert h.peek_max() == (4.0, 4)

    def test_empty_raises(self):
        h = SymmetricMinMaxHeap()
        for op in (h.peek_max, h.pop_min, h.pop_max):
            with pytest.raises(IndexError):
                op()

    def test_single_element_both_ends(self):
        h = SymmetricMinMaxHeap()
        h.push(1.0, 7)
        assert h._items[0] == h.peek_max() == (1.0, 7)

    @settings(max_examples=80, deadline=None)
    @given(items=entries)
    def test_pop_min_sorts_ascending(self, items):
        h = SymmetricMinMaxHeap()
        for d, v in items:
            h.push(d, v)
        assert [h.pop_min() for _ in items] == sorted(items)

    @settings(max_examples=80, deadline=None)
    @given(items=entries)
    def test_pop_max_sorts_descending(self, items):
        h = SymmetricMinMaxHeap()
        for d, v in items:
            h.push(d, v)
        assert [h.pop_max() for _ in items] == sorted(items, reverse=True)

    @settings(max_examples=80, deadline=None)
    @given(items=entries, ops=st.lists(st.booleans(), max_size=150))
    def test_interleaved_pops_match_sorted_oracle(self, items, ops):
        """Arbitrary pop-min/pop-max interleavings match a sorted list."""
        h = SymmetricMinMaxHeap()
        oracle = []
        for d, v in items:
            h.push(d, v)
            oracle.append((d, v))
        oracle.sort()
        for take_min in ops:
            if not oracle:
                break
            if take_min:
                assert h.pop_min() == oracle.pop(0)
            else:
                assert h.pop_max() == oracle.pop()
        assert len(h) == len(oracle)

    @settings(max_examples=50, deadline=None)
    @given(items=entries)
    def test_invariant_after_pushes(self, items):
        """min ≤ every stored item ≤ max at all times."""
        h = SymmetricMinMaxHeap()
        for d, v in items:
            h.push(d, v)
            lo, hi = h._items[0], h.peek_max()
            assert lo <= (d, v) <= hi or (lo <= (d, v) and (d, v) <= hi)
            assert lo == min(h._items)
            assert hi == max(h._items)


class TestBoundedPriorityQueue:
    def test_capacity_enforced(self):
        q = BoundedPriorityQueue(3)
        for d in [5.0, 1.0, 4.0, 2.0, 3.0]:
            q.push(d, int(d))
        assert len(q) == 3
        assert q.to_sorted_list() == [(1.0, 1), (2.0, 2), (3.0, 3)]

    def test_push_returns_eviction(self):
        q = BoundedPriorityQueue(2)
        assert q.push(2.0, 2) is None
        assert q.push(1.0, 1) is None
        assert q.push(3.0, 3) == (3.0, 3)  # bounced off
        assert q.push(0.5, 5) == (2.0, 2)  # displaced the worst

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BoundedPriorityQueue(0)

    @settings(max_examples=80, deadline=None)
    @given(items=entries, cap=st.integers(min_value=1, max_value=30))
    def test_keeps_best_capacity_items(self, items, cap):
        q = BoundedPriorityQueue(cap)
        for d, v in items:
            q.push(d, v)
        assert q.to_sorted_list() == sorted(items)[: min(cap, len(items))]

    @settings(max_examples=40, deadline=None)
    @given(items=entries, cap=st.integers(min_value=1, max_value=10))
    def test_observation1_eviction_safety(self, items, cap):
        """Observation 1: every evicted entry is ≥ all retained entries
        at the moment of eviction (so it could never enter the top-K)."""
        q = BoundedPriorityQueue(cap)
        for d, v in items:
            evicted = q.push(d, v)
            if evicted is not None:
                retained_max = q._heap.peek_max()
                assert evicted >= retained_max

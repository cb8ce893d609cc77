"""Double-ended bounded priority queue.

SONG bounds the frontier queue ``q`` at ``K`` entries (Observation 1 in the
paper) which requires popping *both* the minimum (next vertex to expand) and
the maximum (eviction when the queue overflows).  The paper implements this
with a symmetric min-max heap [Arvind & Rangan 1999]; we implement the
classic min-max heap of Atkinson et al., which provides the identical
interface and identical O(log n) bounds, using a flat array — the property
that matters for a GPU port.
"""

from __future__ import annotations

# lint: hot-path

from typing import List, Optional, Tuple

__all__ = ["SymmetricMinMaxHeap", "BoundedPriorityQueue"]

Entry = Tuple[float, int]


def _is_min_level(i: int) -> bool:
    """True when index ``i`` (0-based) sits on a min level of the heap."""
    level = (i + 1).bit_length() - 1
    return level % 2 == 0


class SymmetricMinMaxHeap:
    """Min-max heap: O(log n) push, pop-min and pop-max over a flat array.

    Entries are ``(distance, vertex)`` tuples ordered lexicographically so
    ties on distance are broken deterministically by vertex id.
    """

    def __init__(self) -> None:
        self._items: List[Entry] = []

    def __len__(self) -> int:
        return len(self._items)

    # -- queries ------------------------------------------------------------

    def peek_max(self) -> Entry:
        """Largest entry without removal."""
        items = self._items
        if not items:
            raise IndexError("peek_max from empty heap")
        if len(items) == 1:
            return items[0]
        if len(items) == 2:
            return items[1]
        return max(items[1], items[2])

    # -- mutation ------------------------------------------------------------

    def push(self, dist: float, vertex: int) -> None:
        """Insert an entry; O(log n)."""
        items = self._items
        items.append((dist, vertex))
        i = len(items) - 1
        if i == 0:
            return
        parent = (i - 1) >> 1
        if _is_min_level(i):
            if items[i] > items[parent]:
                items[i], items[parent] = items[parent], items[i]
                self._bubble_up_max(parent)
            else:
                self._bubble_up_min(i)
        else:
            if items[i] < items[parent]:
                items[i], items[parent] = items[parent], items[i]
                self._bubble_up_min(parent)
            else:
                self._bubble_up_max(i)

    def pop_min(self) -> Entry:
        """Remove and return the smallest entry; O(log n)."""
        items = self._items
        if not items:
            raise IndexError("pop_min from empty heap")
        top = items[0]
        last = items.pop()
        if items:
            items[0] = last
            self._trickle_down(0)
        return top

    def pop_max(self) -> Entry:
        """Remove and return the largest entry; O(log n)."""
        items = self._items
        if not items:
            raise IndexError("pop_max from empty heap")
        if len(items) <= 2:
            return items.pop()
        idx = 1 if items[1] >= items[2] else 2
        top = items[idx]
        last = items.pop()
        if idx < len(items):
            items[idx] = last
            self._trickle_down(idx)
        return top

    # -- internals -----------------------------------------------------------

    def _bubble_up_min(self, i: int) -> None:
        items = self._items
        while i >= 3:
            grand = (((i - 1) >> 1) - 1) >> 1
            if grand < 0:
                return
            if items[i] < items[grand]:
                items[i], items[grand] = items[grand], items[i]
                i = grand
            else:
                return

    def _bubble_up_max(self, i: int) -> None:
        items = self._items
        while i >= 3:
            grand = (((i - 1) >> 1) - 1) >> 1
            if grand < 0:
                return
            if items[i] > items[grand]:
                items[i], items[grand] = items[grand], items[i]
                i = grand
            else:
                return

    def _smallest_descendant(self, i: int) -> int:
        """Index of the smallest among children and grandchildren of ``i``."""
        items = self._items
        n = len(items)
        best = -1
        for c in (2 * i + 1, 2 * i + 2):
            if c < n and (best == -1 or items[c] < items[best]):
                best = c
            for g in (2 * c + 1, 2 * c + 2):
                if g < n and items[g] < items[best]:
                    best = g
        return best

    def _largest_descendant(self, i: int) -> int:
        items = self._items
        n = len(items)
        best = -1
        for c in (2 * i + 1, 2 * i + 2):
            if c < n and (best == -1 or items[c] > items[best]):
                best = c
            for g in (2 * c + 1, 2 * c + 2):
                if g < n and items[g] > items[best]:
                    best = g
        return best

    def _trickle_down(self, i: int) -> None:
        if _is_min_level(i):
            self._trickle_down_min(i)
        else:
            self._trickle_down_max(i)

    def _trickle_down_min(self, i: int) -> None:
        items = self._items
        while True:
            m = self._smallest_descendant(i)
            if m == -1 or items[m] >= items[i]:
                return
            items[m], items[i] = items[i], items[m]
            if m <= 2 * i + 2:  # m was a direct child
                return
            parent = (m - 1) >> 1
            if items[m] > items[parent]:
                items[m], items[parent] = items[parent], items[m]
            i = m

    def _trickle_down_max(self, i: int) -> None:
        items = self._items
        while True:
            m = self._largest_descendant(i)
            if m == -1 or items[m] <= items[i]:
                return
            items[m], items[i] = items[i], items[m]
            if m <= 2 * i + 2:
                return
            parent = (m - 1) >> 1
            if items[m] < items[parent]:
                items[m], items[parent] = items[parent], items[m]
            i = m

    def to_sorted_list(self) -> List[Entry]:
        """Entries smallest-first; does not mutate the heap."""
        return sorted(self._items)


class BoundedPriorityQueue:
    """A min-max heap capped at ``capacity`` entries.

    This is the *bounded priority queue* optimization: once the queue holds
    ``capacity`` entries, pushing a new one evicts the current maximum, so
    memory stays fixed at ``capacity`` slots.  Per Observation 1 of the
    paper, capacity = K preserves the search result exactly.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._heap = SymmetricMinMaxHeap()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, dist: float, vertex: int) -> Optional[Entry]:
        """Insert; returns the evicted entry if the queue was full.

        When full and the candidate is worse than the current maximum the
        candidate itself is the eviction (it never enters the queue).
        """
        heap = self._heap
        if len(heap) < self.capacity:
            heap.push(dist, vertex)
            return None
        worst = heap.peek_max()
        if (dist, vertex) >= worst:
            return (dist, vertex)
        evicted = heap.pop_max()
        heap.push(dist, vertex)
        return evicted

    def pop_min(self) -> Entry:
        return self._heap.pop_min()

    def pop_max(self) -> Entry:
        return self._heap.pop_max()

    def to_sorted_list(self) -> List[Entry]:
        return self._heap.to_sorted_list()

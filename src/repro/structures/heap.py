"""Binary heaps keyed by ``(distance, vertex id)``.

These are the reference priority queues of Algorithm 1: a min-heap for the
search frontier ``q`` and a max-heap for the result set ``topk``.  Ties on
distance break on vertex id so the search is fully deterministic.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

Entry = Tuple[float, int]


class MinHeap:
    """Array-backed binary min-heap of ``(distance, vertex)`` pairs."""

    def __init__(self) -> None:
        self._items: List[Entry] = []

    def __len__(self) -> int:
        return len(self._items)

    def _less(self, a: Entry, b: Entry) -> bool:
        return a < b

    def push(self, dist: float, vertex: int) -> None:
        """Insert an entry; O(log n)."""
        items = self._items
        items.append((dist, vertex))
        i = len(items) - 1
        while i > 0:
            parent = (i - 1) >> 1
            if self._less(items[i], items[parent]):
                items[i], items[parent] = items[parent], items[i]
                i = parent
            else:
                break

    def peek(self) -> Entry:
        """Return the best entry without removing it."""
        if not self._items:
            raise IndexError("peek from empty heap")
        return self._items[0]

    def pop(self) -> Entry:
        """Remove and return the best entry; O(log n)."""
        items = self._items
        if not items:
            raise IndexError("pop from empty heap")
        top = items[0]
        last = items.pop()
        if items:
            items[0] = last
            self._sift_down(0)
        return top

    def _sift_down(self, i: int) -> None:
        items = self._items
        n = len(items)
        while True:
            left = 2 * i + 1
            right = left + 1
            best = i
            if left < n and self._less(items[left], items[best]):
                best = left
            if right < n and self._less(items[right], items[best]):
                best = right
            if best == i:
                return
            items[i], items[best] = items[best], items[i]
            i = best

    def to_sorted_list(self) -> List[Entry]:
        """Return entries best-first without mutating the heap."""
        ascending = sorted(self._items)
        return ascending if self._less((0.0, 0), (1.0, 0)) else ascending[::-1]


class MaxHeap(MinHeap):
    """Array-backed binary max-heap of ``(distance, vertex)`` pairs."""

    def _less(self, a: Entry, b: Entry) -> bool:
        return a > b


class TopKMaxHeap(MaxHeap):
    """A max-heap capped at ``k`` entries holding the best-so-far results.

    ``push_bounded`` keeps the *k smallest* distances seen: when full, a new
    entry replaces the current maximum only if it is strictly better.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        super().__init__()
        self.k = k

    def push_bounded(self, dist: float, vertex: int) -> Optional[Entry]:
        """Insert, evicting the worst entry if over capacity.

        Returns the evicted entry, or ``None`` if nothing was evicted.
        ``None`` is also returned when the entry was simply inserted.
        If the heap is full and the candidate is not better than the current
        worst, the candidate itself is returned (it was "evicted on arrival").
        """
        if len(self) < self.k:
            self.push(dist, vertex)
            return None
        worst = self.peek()
        if (dist, vertex) < worst:
            evicted = self.pop()
            self.push(dist, vertex)
            return evicted
        return (dist, vertex)

    def is_full(self) -> bool:
        return len(self) >= self.k

    def worst_distance(self) -> float:
        """Distance of the current k-th best, or +inf if not yet full."""
        if len(self) < self.k:
            return float("inf")
        return self.peek()[0]

"""Host→device paging for full-precision re-rank fetches.

Full-precision vectors live in host memory, grouped into fixed-size
pages of ``page_rows`` rows.  Re-ranking a candidate set means fetching
the pages its rowids fall in; :class:`PageCache` keeps the hottest pages
device-resident (LRU) so repeated candidates skip the PCIe trip, and the
miss list per chunk becomes one coalesced staged transfer the stream
scheduler overlaps with the previous chunk's kernel.

The cache affects *pricing only*: results are computed from the host
array directly, so any cache capacity (including zero) returns
bit-identical results — the invariant the prefetch-parity test pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.annotations import arr, array_kernel, scalar

__all__ = ["rowids_to_pages", "PageCache"]


@array_kernel(
    params={"n": (1, 2**31), "p": (1, 2**20)},
    args={"rowids": arr(lo=0, hi="n-1"), "page_rows": scalar("p")},
    returns=[arr(dtype="int64", lo=0, hi="n-1")],
)
def rowids_to_pages(rowids: np.ndarray, page_rows: int) -> np.ndarray:
    """Map candidate rowids to their page ids (``rowid // page_rows``).

    Dividing a rowid in ``[0, n)`` by a page size ≥ 1 keeps the result
    in ``[0, n)`` — the bound the verifier proves so downstream page
    bookkeeping can index page tables without re-checking.
    """
    return np.asarray(rowids, dtype=np.int64) // np.int64(page_rows)


@dataclass
class PageCache:
    """Deterministic LRU over device-resident full-precision pages.

    ``capacity_pages = 0`` disables caching (every touch misses).  The
    insertion-ordered dict doubles as the recency list: a hit moves the
    page to the back, an insert evicts from the front.
    """

    capacity_pages: int
    _lru: Dict[int, None] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def touch_run(self, pages: np.ndarray) -> Tuple[int, List[int]]:
        """Touch ``pages`` in order; return ``(hits, missed_pages)``.

        Missed pages are admitted (then possibly evicted) in touch
        order, so the whole trace is a pure function of the request
        stream — no clocks, no randomness.
        """
        run_hits = 0
        missed: List[int] = []
        for page in np.asarray(pages, dtype=np.int64).tolist():
            if self.capacity_pages > 0 and page in self._lru:
                del self._lru[page]
                self._lru[page] = None
                run_hits += 1
                continue
            missed.append(page)
            if self.capacity_pages > 0:
                self._lru[page] = None
                while len(self._lru) > self.capacity_pages:
                    del self._lru[next(iter(self._lru))]
        self.hits += run_hits
        self.misses += len(missed)
        return run_hits, missed

"""Out-of-core tier: compressed-resident traversal + exact re-ranking.

Serve datasets 10–100× larger than device memory by keeping only a
compressed store (sign-projection signatures or PQ codes) and the graph
on device, traversing it with the lockstep batched engine, and
re-ranking an over-fetched candidate set against the host-resident
full-precision vectors with PCIe-metered, prefetch-overlapped page
fetches.  See ``DESIGN.md`` Sec. 16.
"""

from repro.tiered.cache import PageCache, rowids_to_pages
from repro.tiered.codes import BitCodeStore, PQCodeStore, make_store
from repro.tiered.config import TIER_CODECS, TieredConfig
from repro.tiered.engine import TieredServeEngine, rerank_record
from repro.tiered.index import RerankPlan, TieredIndex

__all__ = [
    "TIER_CODECS",
    "TieredConfig",
    "BitCodeStore",
    "PQCodeStore",
    "make_store",
    "PageCache",
    "rowids_to_pages",
    "RerankPlan",
    "TieredIndex",
    "TieredServeEngine",
    "rerank_record",
]

"""Two-tier index: compressed traversal + exact over-fetch re-rank.

:class:`TieredIndex` is the algorithmic core of the out-of-core tier.
Stage one runs SONG's graph traversal over the compressed store's
traversal array, under the store's metric, through the lockstep batched
engine, over-fetching
``min(queue_size, overfetch·k)`` candidates per query.  Stage two scores
those candidates against the *full-precision* host array in the true
metric, sorts them with the SoA packed-key trick (deterministic
``(distance, id)`` tie-break, same as the serial heaps), and keeps the
top ``k``.  The class also reports everything pricing needs: per-lane
candidate counts and the ordered page lists re-ranking must fetch.

Device residency is enforced here: graph + codes + hot-page cache are
reserved on a :class:`~repro.simt.memory.CapacityLedger`; the
full-precision array is deliberately *not* reserved — it lives on the
host, which is the point of the tier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.batched import BatchedSongSearcher, LaneResults
from repro.core.config import SearchConfig
from repro.core.song import SearchStats, require_finite
from repro.distances import get_metric
from repro.graphs.storage import PAD, FixedDegreeGraph
from repro.simt.device import DeviceSpec, get_device
from repro.simt.memory import CapacityLedger
from repro.structures.soa import PAD_KEY, pack_keys
from repro.tiered.cache import rowids_to_pages
from repro.tiered.codes import make_store
from repro.tiered.config import TieredConfig

__all__ = ["rerank_sort_keys", "RerankPlan", "TieredIndex"]


def rerank_sort_keys(
    dists: np.ndarray, ids: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Row-sorted packed ``(distance, id)`` keys for the re-rank stage.

    Invalid slots (lanes that found fewer candidates than the panel
    width) get :data:`~repro.structures.soa.PAD_KEY`, which sorts after
    every real key; valid ids are rowids below 2³², so they fit the
    key's low word.
    """
    keys = pack_keys(dists, ids)
    keys = np.where(valid, keys, PAD_KEY)
    return np.sort(keys, axis=1)


@dataclass
class RerankPlan:
    """What the re-rank stage must fetch and compute, per lane.

    ``page_lists[b]`` is the ordered unique page ids lane ``b``'s
    candidates touch (first-occurrence order — the order the staging
    queue requests them); ``candidate_counts[b]`` is how many exact
    distances the lane pays for.
    """

    candidate_counts: np.ndarray
    page_lists: List[np.ndarray]

    @property
    def total_candidates(self) -> int:
        return int(self.candidate_counts.sum())

    @property
    def total_page_touches(self) -> int:
        return sum(len(p) for p in self.page_lists)


class TieredIndex:
    """Compressed-resident traversal with exact host re-ranking.

    Parameters
    ----------
    graph:
        Fixed-degree proximity graph (shared by both tiers).
    data:
        ``(n, d)`` float32 dataset — host-resident full precision.
    tier:
        Codec / over-fetch / paging configuration.
    device:
        Device preset or spec whose ``memory_bytes`` budget the
        resident tier must fit.
    """

    def __init__(
        self,
        graph: FixedDegreeGraph,
        data: np.ndarray,
        tier: TieredConfig,
        device: str = "v100",
    ) -> None:
        self.graph = graph
        self.data = np.ascontiguousarray(
            np.atleast_2d(np.asarray(data, dtype=np.float32))
        )
        require_finite(self.data, "TieredIndex data")
        self.tier = tier
        self.device: DeviceSpec = get_device(device)
        self.store = make_store(self.data, tier)
        self.searcher = BatchedSongSearcher(graph, self.store.traversal_data)
        n, dim = self.data.shape
        self.page_rows = tier.page_rows
        self.num_pages = -(-n // tier.page_rows)
        #: Bytes one full-precision page moves over PCIe.
        self.page_bytes = tier.page_rows * dim * 4
        self.ledger = CapacityLedger(self.device)
        self.ledger.reserve("graph", graph.memory_bytes())
        self.ledger.reserve("codes", self.store.device_code_bytes())
        cache_pages = min(tier.cache_pages, self.num_pages)
        self.ledger.reserve("page_cache", cache_pages * self.page_bytes)

    # -- footprints ------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Device-resident footprint: graph + codes + hot-page cache."""
        return self.ledger.reserved_bytes

    def full_precision_bytes(self) -> int:
        """What tier-free SONG would have to keep resident."""
        return int(self.data.nbytes) + self.graph.memory_bytes()

    def compression_ratio(self) -> float:
        """Full-precision resident bytes over tiered resident bytes."""
        return self.full_precision_bytes() / max(1, self.resident_bytes)

    # -- search ----------------------------------------------------------

    def overfetch_k(self, config: SearchConfig) -> int:
        """Candidates traversal returns for the re-rank stage."""
        return min(config.queue_size, max(config.k, config.k * self.tier.overfetch))

    def traversal_config(self, config: SearchConfig) -> SearchConfig:
        """Stage one's config: over-fetch under the store's own metric,
        whatever metric the re-rank scores in."""
        return config.with_options(
            k=self.overfetch_k(config), metric=self.store.traversal_metric
        )

    def search_batch_with_stats(
        self, queries: np.ndarray, config: SearchConfig
    ) -> Tuple[LaneResults, List[SearchStats], RerankPlan]:
        """Full tier pipeline: ``(results, traversal stats, rerank plan)``.

        ``stats`` are the per-lane operation records of the *compressed*
        traversal (what the engine prices under the store's profile);
        the plan carries the re-rank stage's fetch/compute demand.
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float32))
        require_finite(queries, "query")
        tcfg = self.traversal_config(config)
        candidates, stats = self.searcher.search_batch_with_stats(
            self.store.encode_queries(queries), tcfg
        )
        results, plan = self._rerank(queries, candidates.ids, config)
        return results, stats, plan

    def _rerank(
        self,
        queries: np.ndarray,
        candidates: np.ndarray,
        config: SearchConfig,
    ) -> Tuple[LaneResults, RerankPlan]:
        """Exact distances over the over-fetched ``(B, k')`` id panel
        (``PAD``-tailed); keep top ``k``."""
        num_lanes, kprime = candidates.shape
        valid = candidates != PAD
        ids = np.where(valid, candidates, 0)
        # Full-precision gather and exact score of the (B, k') panel.
        lanes = np.repeat(np.arange(num_lanes), kprime)
        dists = get_metric(config.metric).gather_many(
            queries, lanes, self.data, ids.reshape(-1)
        ).reshape(num_lanes, kprime)
        top = rerank_sort_keys(dists, ids, valid)[:, : config.k]
        results = LaneResults.from_keys(top, top != PAD_KEY)
        # Each lane's pages in first-occurrence order: a stable row sort
        # puts every page's earliest slot first in its run.
        pages = rowids_to_pages(ids, self.page_rows)
        order = np.argsort(pages, axis=1, kind="stable")
        ordered = np.take_along_axis(pages, order, axis=1)
        run_start = np.ones(pages.shape, dtype=bool)
        run_start[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        first = np.empty(pages.shape, dtype=bool)
        np.put_along_axis(first, order, run_start, axis=1)
        first &= valid
        page_lists = np.split(pages[first], np.cumsum(first.sum(axis=1))[:-1])
        plan = RerankPlan(
            candidate_counts=valid.sum(axis=1), page_lists=page_lists
        )
        return results, plan

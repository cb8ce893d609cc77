"""The decoupled 3-stage SONG search (Sections III–V of the paper).

Each iteration:

1. **Candidate locating** — pop the best vertex (or ``probe_steps``
   vertices) from the frontier, fetch their fixed-degree adjacency rows,
   and filter against ``visited`` into a candidate buffer.
2. **Bulk distance computation** — one batched distance evaluation of
   every candidate against the query (the GPU's warp-parallel reduction).
3. **Data-structure maintenance** — update ``topk``, apply selected
   insertion, push survivors into the frontier, and apply visited
   deletion.

The implementation is functional and machine-agnostic: it fills one
operation record (:class:`SearchStats`), which a machine model prices
afterwards — :func:`repro.core.gpu_kernel.price_block` into GPU cycles
(a batch's records as one block of counts),
:func:`repro.core.cpu_song.record_ops` into CPU work units.

:meth:`SongSearcher.search_batch` is the one place a batch search picks
its engine — this module's per-query loop or the bit-identical lockstep
engine of :mod:`repro.core.batched` — for every index built on a
searcher; ``config.metric`` is the one place it picks its distance
(a :class:`~repro.distances.Metric`, ``"hamming"`` over packed
signatures included); and :func:`checked_queries` is the one validation
both engines apply.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SearchConfig
from repro.distances import get_metric
from repro.graphs.storage import FixedDegreeGraph
from repro.structures.heap import MinHeap, TopKMaxHeap
from repro.structures.minmax_heap import BoundedPriorityQueue
from repro.structures.visited import VisitedBackend, VisitedSet

#: Visited backends with exact (set) semantics, required by the batched
#: engine's ``(B, n + 1)`` lane-visited bitmap (column n: the PAD sentinel).
EXACT_VISITED_BACKENDS = (VisitedBackend.HASH_TABLE, VisitedBackend.PYSET)


def coerce_float32(arr: np.ndarray, label: str = "array") -> np.ndarray:
    """Return ``arr`` as contiguous float32, warning when a copy is forced.

    Packed ``uint32`` signatures (the ``"hamming"`` search space) pass
    through untouched apart from a contiguity fix-up.
    """
    a = np.asarray(arr)
    if np.issubdtype(a.dtype, np.floating) and a.dtype != np.float32:
        warnings.warn(
            f"{label}: converting {a.dtype} to float32 (silent copy); pass "
            f"float32 data to avoid the conversion",
            stacklevel=4,  # the caller of the constructor / search method
        )
        return np.ascontiguousarray(a, dtype=np.float32)
    if not a.flags["C_CONTIGUOUS"]:
        return np.ascontiguousarray(a)
    return a


def require_finite(rows: np.ndarray, label: str) -> None:
    """Raise ``ValueError`` naming the first row of ``rows`` that holds a
    NaN or an infinity.

    Such a row makes the engines disagree without an error (a NaN
    distance orders differently in the serial heaps and the packed
    keys), so float rows are refused at the door.  Two reductions over
    the rows and no temporary unless one fails.
    """
    if rows.size and not (np.isfinite(rows.min()) and np.isfinite(rows.max())):
        bad = int(np.flatnonzero(~np.isfinite(rows).all(axis=1))[0])
        raise ValueError(f"{label} row {bad} is not finite (NaN or infinity)")


def searchable_data(graph: FixedDegreeGraph, data: np.ndarray, label: str) -> np.ndarray:
    """``data`` as either engine stores it: one 2-d float32 or packed
    uint32 row per vertex of ``graph``, float rows all finite."""
    if graph.num_vertices != len(data):
        raise ValueError(
            f"graph has {graph.num_vertices} vertices but data has "
            f"{len(data)} rows"
        )
    data = coerce_float32(data, f"{label} data")
    if data.ndim != 2 or data.dtype not in (np.float32, np.uint32):
        raise ValueError(
            f"{label} data must be a 2-d float array, or packed uint32 "
            f"signatures for metric='hamming'; got {data.dtype} with "
            f"{data.ndim} dimension(s)"
        )
    if data.dtype == np.float32:
        require_finite(data, f"{label} data")
    return data


def checked_queries(data: np.ndarray, queries: np.ndarray, metric: str) -> np.ndarray:
    """``queries`` as the ``(B, d)`` batch ``data`` can be searched with.

    The one validation behind both engines and every index wrapper:
    packed uint32 data is searched under ``"hamming"`` and nothing else,
    by packed uint32 queries; float data by finite float queries
    (coerced to float32); and a query is as wide as a data row.  Anything
    else would compute *something* — wraparound subtraction over
    signature words, a narrow query broadcast across the row, NaN
    distances the two engines order differently — so it raises instead.
    """
    packed = data.dtype == np.uint32
    if packed != (get_metric(metric).name == "hamming"):
        raise ValueError(
            f"metric {metric!r} cannot search {data.dtype} data: packed uint32 "
            f"signatures go with metric='hamming', float vectors with the others"
        )
    queries = np.atleast_2d(np.asarray(queries))
    same_kind = (queries.dtype == np.uint32) if packed else (queries.dtype.kind == "f")
    if not same_kind:
        raise ValueError(
            f"queries are {queries.dtype} but the index holds {data.dtype} rows"
        )
    if queries.ndim != 2 or queries.shape[1] != data.shape[1]:
        raise ValueError(
            f"queries have dim {queries.shape[-1]} but data has dim {data.shape[1]}"
        )
    queries = coerce_float32(queries, "queries")
    if not packed:
        require_finite(queries, "query")
    return queries


class SearchStats:
    """One lane's operation record: what the experiments report, and all
    that a machine model prices a search from
    (:func:`repro.core.gpu_kernel.price_block` on the GPU, one row of
    :func:`~repro.core.gpu_kernel.record_block` per record,
    :func:`repro.core.cpu_song.record_ops` on the CPU).

    Counts accumulate over the searches a record is handed to.
    ``distance_computations`` and ``visited_inserts`` leave out each
    search's entry-point seed (one distance, one insert — ``searches``
    counts those); every other count is the number of operations of its
    kind the search's structures performed, so ``frontier_pops`` includes
    the discarded stop pop and ``frontier_pushes`` the seed push.
    """

    __slots__ = (
        "iterations",
        "distance_computations",
        "visited_peak",
        "visited_inserts",
        "searches",
        "frontier_pops",
        "rows_fetched",
        "visited_tests",
        "visited_deletes",
        "topk_updates",
        "frontier_pushes",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)


class SongSearcher:
    """Searches a fixed-degree proximity graph with SONG's algorithm.

    Parameters
    ----------
    graph:
        The proximity graph (NSW, HNSW layer 0, NSG, ...).
    data:
        ``(n, d)`` float dataset the graph indexes, or the ``(n, w)``
        packed uint32 signatures of a hashed one (:mod:`repro.hashing`),
        searched with ``config.metric == "hamming"``.
    """

    def __init__(self, graph: FixedDegreeGraph, data: np.ndarray) -> None:
        self.graph = graph
        self.data = searchable_data(graph, data, "SongSearcher")
        self._data_norms: Optional[np.ndarray] = None
        self._batched = None

    def data_norms(self) -> np.ndarray:
        """Cached row L2 norms of the dataset (cosine/ip fast path).

        Computed once per searcher and shared with the batched engine, so
        no search loop ever recomputes ``np.linalg.norm(points, axis=1)``.
        """
        if self._data_norms is None:
            self._data_norms = get_metric("cosine").point_norms(self.data)
        return self._data_norms

    # -- public API -----------------------------------------------------------

    def search(
        self,
        query: np.ndarray,
        config: SearchConfig,
        stats: Optional[SearchStats] = None,
    ) -> List[Tuple[float, int]]:
        """Top-``config.k`` neighbors of ``query`` (ascending distance).

        Parameters
        ----------
        query:
            Query vector (same dimensionality as the dataset).
        config:
            Search parameters and optimization switches.
        stats:
            Optional :class:`SearchStats` to fill.
        """
        stats = stats if stats is not None else SearchStats()
        metric = get_metric(config.metric)
        graph = self.graph
        data = self.data
        queries = checked_queries(data, query, config.metric)
        if len(queries) != 1:
            raise ValueError(f"search takes one query, got {len(queries)}")
        query = queries[0]
        if metric.name == "cosine":
            norms = self.data_norms()

            def bulk(q, rows, idx):
                return metric.batch(q, rows, norms=norms[idx])

        else:

            def bulk(q, rows, idx):
                return metric.batch(q, rows)

        pool = config.queue_size

        frontier = self._make_frontier(config)
        topk = TopKMaxHeap(pool)
        visited = VisitedSet(
            backend=config.visited_backend,
            capacity=config.effective_visited_capacity(graph.degree),
            fp_rate=config.bloom_fp_rate,
        )

        # Seed with the entry point.
        start = graph.entry_point
        d0 = float(bulk(query, data[start : start + 1], slice(start, start + 1))[0])
        visited.insert(start)
        stats.searches += 1
        self._frontier_push(frontier, d0, start, topk, visited, config, stats)

        while len(frontier):
            # ---- Stage 1: candidate locating -------------------------------
            popped: List[Tuple[float, int]] = []
            stop = False
            for _ in range(config.probe_steps):
                if not len(frontier):
                    break
                d, v = self._frontier_pop(frontier)
                stats.frontier_pops += 1
                if topk.is_full() and topk.worst_distance() < d:
                    stop = True
                    break
                popped.append((d, v))
            if not popped:
                break

            candidates: List[int] = []
            seen_this_round = set()
            for _, v in popped:
                row = graph.neighbors(v)
                stats.rows_fetched += 1
                stats.visited_tests += len(row)
                for u in row:
                    u = int(u)
                    if u in seen_this_round or visited.contains(u):
                        continue
                    seen_this_round.add(u)
                    candidates.append(u)

            # ---- Stage 2: bulk distance computation -------------------------
            if candidates:
                dists = bulk(query, data[candidates], candidates)
            else:
                dists = ()
            stats.iterations += 1
            stats.distance_computations += len(candidates)

            # ---- Stage 3: data-structure maintenance ------------------------
            for d, v in popped:
                self._topk_push(topk, d, v, visited, config, stats)
            for u, d in zip(candidates, np.asarray(dists, dtype=float).tolist()):
                if (
                    config.selected_insertion
                    and topk.is_full()
                    and d >= topk.worst_distance()
                ):
                    continue  # filtered out: not marked visited, not enqueued
                visited.insert(u)
                stats.visited_inserts += 1
                self._frontier_push(frontier, d, u, topk, visited, config, stats)
            stats.visited_peak = max(stats.visited_peak, len(visited))
            if stop:
                break

        # With a probabilistic deletable filter (Cuckoo + visited deletion)
        # a fingerprint collision can false-delete another key, letting a
        # vertex re-enter the frontier; keep only its best appearance.
        out: List[Tuple[float, int]] = []
        seen_ids = set()
        for d, v in sorted(topk.to_sorted_list()):
            if v not in seen_ids:
                seen_ids.add(v)
                out.append((d, v))
            if len(out) == config.k:
                break
        return out

    # -- frontier helpers ------------------------------------------------------

    @staticmethod
    def _make_frontier(config: SearchConfig):
        if config.bounded_queue:
            return BoundedPriorityQueue(config.queue_size)
        return MinHeap()

    @staticmethod
    def _frontier_pop(frontier) -> Tuple[float, int]:
        if isinstance(frontier, BoundedPriorityQueue):
            return frontier.pop_min()
        return frontier.pop()

    def _frontier_push(
        self,
        frontier,
        dist: float,
        vertex: int,
        topk: TopKMaxHeap,
        visited: VisitedSet,
        config: SearchConfig,
        stats: SearchStats,
    ) -> None:
        stats.frontier_pushes += 1
        if isinstance(frontier, BoundedPriorityQueue):
            evicted = frontier.push(dist, vertex)
            if evicted is not None and config.visited_deletion:
                # The evicted vertex left q and was never in topk: it can be
                # safely re-marked unvisited (it is outside the top-K radius).
                visited.delete(evicted[1])
                stats.visited_deletes += 1
        else:
            frontier.push(dist, vertex)

    def _topk_push(
        self,
        topk: TopKMaxHeap,
        dist: float,
        vertex: int,
        visited: VisitedSet,
        config: SearchConfig,
        stats: SearchStats,
    ) -> None:
        evicted = topk.push_bounded(dist, vertex)
        stats.topk_updates += 1
        if evicted is not None and config.visited_deletion:
            # Either the candidate itself failed to enter topk, or a previous
            # result was displaced; both are now outside q ∪ topk.
            visited.delete(evicted[1])
            stats.visited_deletes += 1

    # -- conveniences ------------------------------------------------------------

    def supports_batched(self, config: SearchConfig) -> bool:
        """Whether ``config`` permits the vectorized lockstep engine.

        The batched engine needs an exact visited backend (its
        lane-visited bitmap cannot reproduce Bloom/Cuckoo false
        positives); anything else runs serially.
        """
        return VisitedBackend(config.visited_backend) in EXACT_VISITED_BACKENDS

    def search_batch(
        self,
        queries: np.ndarray,
        config: SearchConfig,
        stats: Optional[Sequence[SearchStats]] = None,
        engine: str = "auto",
    ) -> List[List[Tuple[float, int]]]:
        """Search every row of ``queries``.

        Parameters
        ----------
        queries:
            ``(B, d)`` query matrix.
        config:
            Search parameters, shared by all queries.
        stats:
            Optional sequence of ``B`` :class:`SearchStats`, filled
            per-query by either engine.
        engine:
            ``"auto"`` (default) dispatches multi-query batches to the
            vectorized :class:`~repro.core.batched.BatchedSongSearcher`
            whenever :meth:`supports_batched` allows — results are
            identical either way; ``"serial"`` / ``"batched"`` force one
            path.
        """
        if engine not in ("auto", "serial", "batched"):
            raise ValueError(f"unknown engine {engine!r}")
        queries = checked_queries(self.data, queries, config.metric)
        if stats is not None and len(stats) != len(queries):
            raise ValueError(
                f"stats has {len(stats)} entries for {len(queries)} queries"
            )
        use_batched = engine == "batched" or (
            engine == "auto" and len(queries) > 1 and self.supports_batched(config)
        )
        if use_batched:
            return self.batched().search_batch(queries, config, stats=stats)
        return [
            self.search(q, config, stats=None if stats is None else stats[i])
            for i, q in enumerate(queries)
        ]

    def batched(self):
        """The lockstep engine over this searcher's graph/data (cached)."""
        if self._batched is None:
            from repro.core.batched import BatchedSongSearcher

            self._batched = BatchedSongSearcher(self.graph, self.data, parent=self)
        return self._batched

"""Vectorized batched multi-query search (warp-per-query, lockstep).

SONG's throughput comes from running one query per warp with many warps in
flight, every warp executing the same 3-stage iteration in lockstep and
the bulk-distance stage dominating as pure data-parallel work (paper
Sections III–V).  :class:`BatchedSongSearcher` reproduces that execution
shape in numpy: ``B`` queries advance together through the search loop
over structure-of-arrays state —

- a ``(B, queue_size)`` packed-key frontier
  (:class:`~repro.structures.soa.BatchedFrontier`),
- a ``(B, pool)`` packed-key result pool
  (:class:`~repro.structures.soa.BatchedTopK`),
- a dense ``(B, n)`` lane-visited bitmap —

so candidate locating yields one ``(B, probe_steps * degree)`` candidate
matrix per round.  Like the serial engine (and SONG's stage 1, and
CAGRA's visited test), the round filters *before* it scores: PAD slots,
already-visited neighbours, in-round repeats and retired lanes are
dropped first, the survivors are compacted into one ragged
``(lane, vertex)`` list of length ``R``, and stage 2 scores exactly
those rows with one
:meth:`~repro.distances.metrics.Metric.gather_many` call instead of ``B``
tiny per-iteration numpy calls.  That primitive keeps the stage in
cache the way SONG keeps it on chip: it walks the list in L2-sized
tiles and, per tile, gathers rows and queries and reduces them as an
``(r, 1, d)`` panel through
:meth:`~repro.distances.metrics.Metric.batch_many`, so no ``R``-row
operand makes a round trip through main memory (at B=256, d=200 a round
has R ≈ 5,100 survivors: four 4 MB arrays if scored as one panel).  A
round whose survivors fit one tile — every B ≤ 32 batch, the
zero-survivor round — is one ``batch_many`` call.  Stage 3 filters,
marks and packs the flat list and scatters the keys back into a
``(B, L)`` block for the frontier merge.  Queries that converge early
are masked out like inactive SIMT lanes until the whole batch drains.

Correctness bar: under an exact visited backend the engine returns results
**bit-identical** to :meth:`repro.core.song.SongSearcher.search`.  The
equivalence rests on two facts:

1. every bounded structure's *content* is insertion-order independent (a
   sorted merge per round equals the serial per-entry push sequence), and
2. ``batch_many`` reduces every row of its panel independently through
   the same flattened ``einsum`` as the serial ``Metric.batch``, so a
   ``(query, row)`` pair's value does not depend on how many other rows
   share the call — nor, therefore, on where ``gather_many``'s tile
   boundaries fall (``tests/test_distances.py`` pins both) — and every
   distance value matches bitwise.

Probabilistic visited backends (Bloom/Cuckoo) are sequence-dependent and
are therefore routed to the serial engine by
:meth:`SongSearcher.search_batch`'s auto-dispatch — the visited backend
is all that dispatch looks at.  The engine itself is metric-agnostic:
whatever rows the dataset holds (float32 vectors, or packed uint32
signatures under ``"hamming"``) are gathered and scored by
``config.metric``'s ``gather_many``.
"""

from __future__ import annotations

# lint: hot-path

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.annotations import arr, array_kernel
from repro.core.config import SearchConfig
from repro.core.song import (
    EXACT_VISITED_BACKENDS,
    SearchStats,
    SongSearcher,
    checked_queries,
    searchable_data,
)
from repro.distances import get_metric
from repro.graphs.storage import PAD, FixedDegreeGraph
from repro.structures.soa import (
    PAD_KEY,
    BatchedFrontier,
    BatchedTopK,
    pack_keys,
    unpack_distances,
    unpack_ids,
)
from repro.structures.visited import VisitedBackend

__all__ = ["BatchedSongSearcher"]


@array_kernel(
    params={"n": (1, 2**31), "B": (1, 2**20), "L": (1, 2**16)},
    args={
        "cand": arr("B", "L", lo=-1, hi="n-1"),
        "valid": arr("B", "L", dtype="bool"),
    },
    returns=[arr("B", "L", dtype="bool")],
)
def _first_occurrence_mask(cand: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Keep only each lane's first valid occurrence of every vertex id.

    The batched twin of the serial ``seen_this_round`` set: slot ``j``
    is dropped when any earlier valid slot ``i`` holds the same vertex.
    One plain row sort of the valid ids settles the common case — no
    repeat anywhere, the mask is ``valid`` itself; only a round that
    does hold one pays for the stable argsort, in which the first slot
    of every run of equal ids is the earliest.  O(L log L) per lane,
    ``L`` = slots of the round's candidate window.
    """
    keyed = np.where(valid, cand, PAD)
    ordered = np.sort(keyed, axis=1)
    if not ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != PAD)).any():
        return valid
    order = np.argsort(keyed, axis=1, kind="stable")
    ordered = np.take_along_axis(keyed, order, axis=1)
    first = np.ones(cand.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    mask = np.empty(cand.shape, dtype=bool)
    np.put_along_axis(mask, order, first, axis=1)
    return mask & valid


class BatchedSongSearcher:
    """Lockstep multi-query searcher over a fixed-degree proximity graph.

    Parameters
    ----------
    graph:
        The proximity graph (NSW, HNSW layer 0, NSG, ...).
    data:
        ``(n, d)`` float32 dataset the graph indexes, or ``(n, w)`` packed
        uint32 signatures searched under ``metric="hamming"``.
    parent:
        Optional :class:`SongSearcher` to share cached dataset norms with.
    """

    def __init__(
        self,
        graph: FixedDegreeGraph,
        data: np.ndarray,
        parent: Optional[SongSearcher] = None,
    ) -> None:
        self.graph = graph
        self.data = searchable_data(graph, data, "BatchedSongSearcher")
        self._parent = parent
        self._data_norms: Optional[np.ndarray] = None

    def data_norms(self) -> np.ndarray:
        """Cached row L2 norms, shared with the parent serial searcher."""
        if self._parent is not None:
            return self._parent.data_norms()
        if self._data_norms is None:
            self._data_norms = get_metric("cosine").point_norms(self.data)
        return self._data_norms

    # -- public API -----------------------------------------------------------

    def search_batch_with_stats(
        self,
        queries: np.ndarray,
        config: SearchConfig,
        entry_points: Optional[np.ndarray] = None,
    ) -> Tuple[List[List[Tuple[float, int]]], List[SearchStats]]:
        """Batch search returning ``(results, per-lane stats)``.

        Convenience for callers that always want the records — the
        serving layer prices batches on the simulated GPU from these
        per-lane stats (:meth:`repro.core.gpu_kernel.GpuSongIndex.price`).
        """
        queries = np.atleast_2d(np.asarray(queries))
        stats = [SearchStats() for _ in range(len(queries))]
        results = self.search_batch(
            queries, config, stats=stats, entry_points=entry_points
        )
        return results, stats

    def search_batch(
        self,
        queries: np.ndarray,
        config: SearchConfig,
        meter=None,
        stats: Optional[Sequence[SearchStats]] = None,
        entry_points: Optional[np.ndarray] = None,
    ) -> List[List[Tuple[float, int]]]:
        """Top-``config.k`` neighbors for every row of ``queries``.

        Parameters
        ----------
        queries:
            ``(B, d)`` query matrix (floats are coerced to float32).
        config:
            Search parameters; the visited backend must be exact
            (``hashtable`` or ``pyset``).
        meter:
            Must stay ``None``: a search is accounted by its operation
            record (``stats``), priced afterwards.  The keyword only
            survives for callers that still forward it.
        stats:
            Optional sequence of ``B`` :class:`SearchStats`, filled with
            per-lane counts identical to the serial engine's.
        entry_points:
            Optional ``(B,)`` per-lane start vertices (defaults to the
            graph's entry point for every lane).  Batched graph
            construction uses this to resume each insertion's search from
            its upper-layer descent.
        """
        if meter is not None:
            raise TypeError(
                "search_batch no longer takes an event meter: pass stats= and "
                "price the SearchStats operation records afterwards"
            )
        if VisitedBackend(config.visited_backend) not in EXACT_VISITED_BACKENDS:
            raise ValueError(
                "the batched engine requires an exact visited backend "
                f"(hashtable/pyset), not {config.visited_backend!r}"
            )
        queries = checked_queries(self.data, queries, config.metric)
        if stats is not None and len(stats) != len(queries):
            raise ValueError(
                f"stats has {len(stats)} entries for {len(queries)} queries"
            )
        num_queries = len(queries)
        if num_queries == 0:
            return []
        if entry_points is not None:
            entry_points = np.asarray(entry_points, dtype=np.int64)
            if entry_points.shape != (num_queries,):
                raise ValueError(
                    f"entry_points must have shape ({num_queries},), got "
                    f"{entry_points.shape}"
                )
            if entry_points.min() < 0 or entry_points.max() >= self.graph.num_vertices:
                raise ValueError("entry_points out of range")
        state = _LockstepState(self, queries, config, entry_points)
        while state.round():
            pass
        results = state.results()
        if stats is not None:
            state.fill_stats(stats)
        return results


class _LockstepState:
    """All structure-of-arrays state of one batch search, plus the round loop.

    One instance is one "kernel launch": ``B`` lanes, each owning a row of
    the frontier, the result pool, and the visited bitmap.  :meth:`round`
    executes one lockstep iteration of the 3-stage loop across every
    active lane and returns False once the batch has drained.
    """

    def __init__(self, searcher, queries, config, entry_points=None):
        graph = searcher.graph
        self.config = config
        self.data = searcher.data
        self.queries = queries
        self.adj = graph.adjacency_array
        self.metric = get_metric(config.metric)
        self.norms = (
            searcher.data_norms() if self.metric.name == "cosine" else None
        )
        self.steps = config.probe_steps
        self.pool = config.queue_size
        self.k = config.k

        b = len(queries)
        n = graph.num_vertices
        self.b = b
        lanes = np.arange(b)
        self._rows = lanes[:, None]
        capacity = config.queue_size if config.bounded_queue else None
        self.frontier = BatchedFrontier(b, capacity)
        self.topk = BatchedTopK(b, self.pool)
        self.visited = np.zeros((b, n), dtype=bool)
        self.visited_len = np.zeros(b, dtype=np.int64)
        self.active = np.ones(b, dtype=bool)
        # Per-lane operation record (fill_stats maps it onto SearchStats).
        self.iterations = np.zeros(b, dtype=np.int64)
        self.distance_computations = np.zeros(b, dtype=np.int64)
        self.visited_inserts = np.zeros(b, dtype=np.int64)
        self.visited_peak = np.zeros(b, dtype=np.int64)
        self.pops = np.zeros(b, dtype=np.int64)  # surviving pops only
        self.stop_pops = np.zeros(b, dtype=np.int64)
        self.visited_tests = np.zeros(b, dtype=np.int64)
        self.visited_deletes = np.zeros(b, dtype=np.int64)

        # Seed every lane with its entry point, like the serial searcher.
        if entry_points is None:
            start = np.full(b, graph.entry_point, dtype=np.int64)
        else:
            start = entry_points
        d0 = self.metric.gather_many(queries, lanes, self.data, start, self.norms)
        self.visited[lanes, start] = True
        self.visited_len[:] = 1
        self.frontier.seed(pack_keys(d0, start))

    # -- one lockstep iteration ----------------------------------------------

    def round(self) -> bool:
        """Advance every active lane one iteration; False when drained."""
        # Lanes whose frontier drained stop exactly like the serial
        # ``while len(frontier)`` check.
        self.active &= self.frontier.sizes > 0
        if not self.active.any():
            return False
        config = self.config

        # ---- Stage 1: candidate locating ---------------------------------
        window = self.frontier.window(self.steps)
        win_dists = unpack_distances(window)
        full, worst = self.topk.full_and_worst()
        avail = np.minimum(self.steps, self.frontier.sizes)
        slot = np.arange(window.shape[1], dtype=np.int64)[None, :]
        # A pop survives the serial check unless ``full and worst < d``;
        # the frontier rows are sorted, so survivors form a prefix.
        ok = (~full[:, None]) | (win_dists <= worst[:, None])
        ok &= slot < avail[:, None]
        ok &= self.active[:, None]
        n_pop = np.cumprod(ok, axis=1, dtype=np.int64).sum(axis=1)
        # A lane that hit the stop condition consumes (and discards) the
        # failing entry, finishes this round, then goes inactive.
        stop = self.active & (n_pop < avail)
        process = self.active & (n_pop > 0)
        self.pops += n_pop
        self.stop_pops += stop
        if not process.any():
            self.active = process
            return False

        pop_mask = slot < n_pop[:, None]
        popped_ids = np.where(pop_mask, unpack_ids(window), 0)
        neighbors = self.adj[popped_ids]  # (B, ws, degree)
        valid = (pop_mask[:, :, None] & (neighbors != PAD)).reshape(self.b, -1)
        cand = neighbors.reshape(self.b, -1)
        self.visited_tests += valid.sum(axis=1)
        valid &= ~self.visited[self._rows, np.where(valid, cand, 0)]
        valid = _first_occurrence_mask(cand, valid)
        # The survivors, as one ragged (lane, slot) list in lane order.
        lane_idx, slot_idx = np.nonzero(valid)
        ids = cand[lane_idx, slot_idx]

        # ---- Stage 2: bulk distance computation, survivors only -----------
        dists = self.metric.gather_many(
            self.queries, lane_idx, self.data, ids, self.norms
        )
        n_scored = np.bincount(lane_idx, minlength=self.b)
        self.iterations += process
        self.distance_computations += n_scored

        # ---- Stage 3: data-structure maintenance -------------------------
        popped_keys = np.where(pop_mask, window, PAD_KEY)
        topk_evicted = self.topk.merge(popped_keys)
        if config.visited_deletion:
            self._delete_evicted(topk_evicted)
        n_accepted = n_scored
        if config.selected_insertion:
            # Skip candidates outside the top-K radius: not marked
            # visited, not enqueued (the computation-for-memory trade).
            full, worst = self.topk.full_and_worst()
            inside = ~full[lane_idx] | (dists < worst[lane_idx])
            lane_idx, slot_idx = lane_idx[inside], slot_idx[inside]
            ids, dists = ids[inside], dists[inside]
            n_accepted = np.bincount(lane_idx, minlength=self.b)
        self.visited[lane_idx, ids] = True
        self.visited_len += n_accepted
        self.visited_inserts += n_accepted
        cand_keys = np.full(cand.shape, PAD_KEY, dtype=np.uint64)
        cand_keys[lane_idx, slot_idx] = pack_keys(dists, ids)
        # The discarded stop pop left the queue too: its slot is free
        # for this round's candidates, exactly as in the serial loop.
        frontier_evicted = self.frontier.merge(n_pop + stop, cand_keys, n_accepted)
        if config.visited_deletion and frontier_evicted.shape[1]:
            self._delete_evicted(frontier_evicted)
        np.maximum(self.visited_peak, self.visited_len, out=self.visited_peak)

        self.active = process & ~stop
        return self.active.any()

    def _delete_evicted(self, evicted_keys: np.ndarray) -> None:
        """Unmark evicted vertices (the visited-deletion optimization)."""
        real = evicted_keys != PAD_KEY
        if not real.any():
            return
        lane_idx, slot_idx = np.nonzero(real)
        ids = unpack_ids(evicted_keys[lane_idx, slot_idx])
        self.visited[lane_idx, ids] = False
        n_deleted = real.sum(axis=1)
        self.visited_len -= n_deleted
        self.visited_deletes += n_deleted

    # -- result extraction ----------------------------------------------------

    def results(self) -> List[List[Tuple[float, int]]]:  # lint: allow(hot-loop)
        """Per-lane top-``k`` lists, ascending, deduplicated by id.

        O(B·k) assembly of the Python return shape, not dataset-sized.
        """
        keys = self.topk.keys
        ids = unpack_ids(keys).tolist()
        dists = unpack_distances(keys).tolist()
        out: List[List[Tuple[float, int]]] = []
        for lane_ids, lane_dists, size in zip(ids, dists, self.topk.sizes().tolist()):
            lane: List[Tuple[float, int]] = []
            seen = set()
            for vertex, dist in zip(lane_ids[:size], lane_dists[:size]):
                if vertex in seen:
                    continue
                seen.add(vertex)
                lane.append((dist, vertex))
                if len(lane) == self.k:
                    break
            out.append(lane)
        return out

    def fill_stats(self, stats: Sequence[SearchStats]) -> None:  # lint: allow(hot-loop)
        """Accumulate per-lane counters into caller-provided stats (O(B)).

        Every surviving pop fetches one adjacency row and updates the
        result pool once; every visited insert, and the seed, is one
        frontier push.
        """
        columns = zip(
            stats,
            self.iterations.tolist(),
            self.distance_computations.tolist(),
            self.visited_inserts.tolist(),
            self.visited_peak.tolist(),
            self.pops.tolist(),
            self.stop_pops.tolist(),
            self.visited_tests.tolist(),
            self.visited_deletes.tolist(),
        )
        for entry, iters, dists, inserts, peak, pops, stops, tests, deletes in columns:
            entry.iterations += iters
            entry.distance_computations += dists
            entry.visited_inserts += inserts
            entry.visited_peak = max(entry.visited_peak, peak)
            entry.searches += 1
            entry.frontier_pops += pops + stops
            entry.rows_fetched += pops
            entry.visited_tests += tests
            entry.visited_deletes += deletes
            entry.topk_updates += pops
            entry.frontier_pushes += inserts + 1

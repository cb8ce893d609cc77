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
- a flat ``(B, n + 1)`` lane-visited bitmap whose rows each end in a
  permanently-True sentinel column for PAD (-1) —

so candidate locating yields one ``(B, probe_steps * degree)`` candidate
matrix per round.  Like the serial engine (and SONG's stage 1, and
CAGRA's visited test), the round filters *before* it scores: one flat
gather of the bitmap rejects PAD slots (they address a sentinel
column), slots of lanes that popped nothing (masked to PAD) and
already-visited neighbours, then in-round repeats are dropped — unless
none is possible: a one-row window (``probe_steps=1``) over a graph
whose rows never repeat an id (``FixedDegreeGraph.repeat_free``) holds
none.  The survivors are compacted into one ragged ``(lane, vertex)``
list of length ``R``, and stage 2 scores exactly those rows with one
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
A round does only the search: the per-lane operation record is a log of
the ``(B,)`` vectors each round computed anyway, reduced once when the
batch has drained, and the results leave as ``(B, k)`` arrays, as
SONG's leave the device in one copy: a lane becomes ``(distance, id)``
tuples only while a caller reads it (:class:`LaneResults`).

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

from itertools import repeat
from typing import List, Optional, Sequence, Tuple

import numpy as np

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

__all__ = ["BatchedSongSearcher", "LaneResults", "LaneView"]


class _ListView(list):
    """A read-only list whose items are built on every read.

    Subclasses give ``_items()``, the plain list the view stands for,
    ``__len__`` and ``__iter__``; every other list read goes to
    ``_items()``, so the view compares, slices, reprs and JSON-encodes as
    that list and keeps none of it.  It subclasses ``list`` only so that
    code keyed on ``isinstance(x, list)`` (``json``, list comparison)
    reads it as one: its own list storage stays empty, and every method
    that would write it raises ``TypeError``.
    """

    __slots__ = ()

    def __getitem__(self, index):
        return self._items()[index]

    def __reversed__(self):
        return reversed(self._items())

    def __contains__(self, item) -> bool:
        return item in self._items()

    def __repr__(self) -> str:
        return repr(self._items())

    # Through the operators, so that a view on the other side answers
    # with its items rather than with its empty list storage.
    def __eq__(self, other):
        return self._items() == other

    def __ne__(self, other):
        return self._items() != other

    def __lt__(self, other):
        return self._items() < other

    def __le__(self, other):
        return self._items() <= other

    def __gt__(self, other):
        return self._items() > other

    def __ge__(self, other):
        return self._items() >= other

    def __add__(self, other):
        return self._items() + other

    def __radd__(self, other):
        return other + self._items()

    def __mul__(self, times):
        return self._items() * times

    __rmul__ = __mul__

    def copy(self) -> list:
        return self._items()

    def index(self, *args) -> int:
        return self._items().index(*args)

    def count(self, item) -> int:
        return self._items().count(item)

    def __reduce__(self):
        return list, (self._items(),)

    def _read_only(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is read-only")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only


class LaneView(_ListView):
    """Lane ``lane`` of a :class:`LaneResults`: its ``(distance, id)``
    list, decoded from the batch's arrays on every read and never kept."""

    __slots__ = ("batch", "lane")

    def __init__(self, batch: "LaneResults", lane: int) -> None:
        self.batch, self.lane = batch, lane

    def __iter__(self):
        ids = self.batch.ids[self.lane].tolist()
        del ids[len(ids) - ids.count(PAD) :]  # PAD only ever trails a lane
        return zip(self.batch.dists[self.lane].tolist(), ids)

    def _items(self) -> List[Tuple[float, int]]:
        return list(self.__iter__())

    def __len__(self) -> int:
        ids = self.batch.ids[self.lane].tolist()
        return len(ids) - ids.count(PAD)


class LaneResults(_ListView):
    """Per-lane top-``k`` ``(distance, id)`` lists, ascending, of one
    batch, held as the ``(B, w)`` ``ids`` / ``dists`` arrays.

    ``ids`` is ``PAD`` and ``dists`` ``inf`` past each lane's list.  A
    caller that continues in arrays (HNSW linking, NSG's pools, the
    tier's re-rank) reads those two; every other caller reads a list of
    lists: ``results[i]`` is a :class:`LaneView` that decodes lane ``i``
    only while it is read, so building a batch's results allocates
    nothing per lane.
    """

    __slots__ = ("ids", "dists")

    def __init__(self, ids: np.ndarray, dists: np.ndarray) -> None:
        self.ids, self.dists = ids, dists

    @classmethod
    def from_keys(cls, keys: np.ndarray, filled: np.ndarray) -> "LaneResults":
        """Results from packed ``(B, w)`` keys, ``filled`` where a slot holds
        a result (every lane's filled slots first)."""
        return cls(
            np.where(filled, unpack_ids(keys), PAD),
            np.where(filled, unpack_distances(keys), np.float32(np.inf)),
        )

    def _items(self) -> List[LaneView]:
        return [LaneView(self, lane) for lane in range(len(self))]

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._items()[index]
        # A range indexes as a list does: negative lanes, IndexError.
        return LaneView(self, range(len(self.ids))[index])

    def __iter__(self):
        return map(LaneView, repeat(self), range(len(self)))


def _unvisited(visited: np.ndarray, base: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """True where ``cand[b, j]`` is a vertex lane ``b`` has not visited.

    ``visited`` is the flat ``(B, n + 1)`` lane bitmap, lane ``b``'s row
    starting at ``base[b] = b * (n + 1)``, and every row's last column is
    the PAD sentinel, permanently True.  A real id (< n) reads its own
    lane's row; PAD (-1) reads the column just before it — lane
    ``b - 1``'s sentinel, or for lane 0 (the one negative index) the last
    lane's — so this one gather rejects padding and visited vertices
    alike.  One flat gather instead of a ``(rows, cand)`` pair: numpy's
    two-index path costs over twice as much at B = 256.
    """
    return ~visited[base + cand]


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
    ordered = np.where(valid, cand, PAD)
    ordered.sort(axis=1)
    if not ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != PAD)).any():
        return valid
    keyed = np.where(valid, cand, PAD)
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
    ) -> Tuple[LaneResults, List[SearchStats]]:
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
    ) -> LaneResults:
        """Top-``config.k`` neighbors for every row of ``queries``.

        The per-lane ``(distance, id)`` lists, held as the ``(B, w)`` id
        and distance arrays and decoded lane by lane as they are read
        (:class:`LaneResults`).

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
            width = min(config.k, config.queue_size)
            return LaneResults(
                np.empty((0, width), dtype=np.int64), np.empty((0, width), np.float32)
            )
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
    the frontier, the result pool, and the flat ``(B, n + 1)`` visited
    bitmap (column ``n`` of every row is the PAD sentinel).  :meth:`round`
    executes one lockstep iteration of the 3-stage loop across every
    active lane and returns False once the batch has drained.  Its fixed
    cost is what a small served batch pays, so a round does only the
    search: it decodes its keys once, gathers the bitmap once, and appends
    the ``(B,)`` vectors it computed anyway to the operation record, which
    :meth:`fill_stats` reduces once, at the end.
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
        self.k = config.k
        # A one-row window of a graph whose rows never repeat an id holds
        # no in-round repeat, so the dedupe would return its input.
        self.dedupe = self.steps > 1 or not graph.repeat_free

        b = len(queries)
        n = graph.num_vertices
        self.b = b
        lanes = np.arange(b)
        capacity = config.queue_size if config.bounded_queue else None
        self.frontier = BatchedFrontier(b, capacity)
        self.topk = BatchedTopK(b, config.queue_size)
        # Lane b's row starts at base[b]; its column n is the PAD sentinel
        # (see _unvisited): always "visited".
        self.stride = n + 1
        self.base = lanes[:, None] * self.stride
        self.visited = np.zeros(b * self.stride, dtype=bool)
        self.visited[n :: self.stride] = True
        self.neighbor_counts = graph.neighbor_counts
        self.active = np.ones(b, dtype=bool)
        # The operation record, one entry per round (see fill_stats).
        self.pop_masks: List[np.ndarray] = []
        self.fetched: List[np.ndarray] = []
        self.stops: List[np.ndarray] = []
        self.scored: List[np.ndarray] = []
        self.accepted: List[np.ndarray] = []
        # Only visited deletion shrinks a lane's set: only it tracks the
        # size, peak and deletes round by round.
        if config.visited_deletion:
            self.visited_len = np.ones(b, dtype=np.int64)
            self.visited_peak = np.zeros(b, dtype=np.int64)
            self.visited_deletes = np.zeros(b, dtype=np.int64)

        # Seed every lane with its entry point, like the serial searcher.
        if entry_points is None:
            start = np.full(b, graph.entry_point, dtype=np.int64)
        else:
            start = entry_points
        d0 = self.metric.gather_many(queries, lanes, self.data, start, self.norms)
        self.visited[self.base[:, 0] + start] = True
        self.frontier.seed(pack_keys(d0, start))

    # -- one lockstep iteration ----------------------------------------------

    def round(self) -> bool:
        """Advance every active lane one iteration; False when drained.

        The one drain test is ``process`` below: the round after the last
        lane retires finds nothing to pop and returns False.  A lane whose
        frontier drained pops nothing, like the serial ``while
        len(frontier)`` check.
        """
        config = self.config

        # ---- Stage 1: candidate locating ---------------------------------
        window = self.frontier.window(self.steps)
        # The pop window and the pool's worst entry, decoded together.
        pool_tail = self.topk.keys[:, -1:]
        head_dists = unpack_distances(np.concatenate((window, pool_tail), axis=1))
        real = window != PAD_KEY
        # A pop survives the serial check unless ``full and worst < d``;
        # the frontier rows are sorted, so survivors form a prefix of the
        # window's real (non-PAD) entries.
        ok = (pool_tail == PAD_KEY) | (head_dists[:, :-1] <= head_dists[:, -1:])
        ok &= real
        ok &= self.active[:, None]
        pop_mask = ok if ok.shape[1] == 1 else np.logical_and.accumulate(ok, axis=1)
        n_pop = pop_mask.sum(axis=1)
        # A lane that hit the stop condition consumes (and discards) the
        # failing entry, finishes this round, then goes inactive.  The
        # window's real entries number min(probe_steps, frontier size).
        stop = self.active & (n_pop < real.sum(axis=1))
        self.pop_masks.append(pop_mask)
        self.stops.append(stop)
        process = pop_mask[:, 0]
        if not process.any():
            self.active = process
            return False

        # Slots that pop nothing fetch row 0, then are masked to PAD once;
        # the sentinel column rejects every PAD with the visited test.
        popped = unpack_ids(window) * pop_mask
        self.fetched.append(self.neighbor_counts[popped])
        cand = np.where(pop_mask[:, :, None], self.adj[popped], PAD).reshape(self.b, -1)
        valid = _unvisited(self.visited, self.base, cand)
        if self.dedupe:
            valid = _first_occurrence_mask(cand, valid)
        # The survivors, as one ragged list in lane order: flat (lane, slot)
        # positions into the (B, L) candidate block.
        flat = valid.ravel().nonzero()[0]
        lane_idx = flat // cand.shape[1]
        ids = cand.take(flat)

        # ---- Stage 2: bulk distance computation, survivors only -----------
        dists = self.metric.gather_many(
            self.queries, lane_idx, self.data, ids, self.norms
        )
        n_scored = np.bincount(lane_idx, minlength=self.b)
        self.scored.append(n_scored)

        # ---- Stage 3: data-structure maintenance -------------------------
        topk_evicted = self.topk.merge(np.where(pop_mask, window, PAD_KEY))
        if config.visited_deletion:
            self._delete_evicted(topk_evicted)
        n_accepted = n_scored
        if config.selected_insertion:
            # Skip candidates outside the top-K radius: not marked
            # visited, not enqueued (the computation-for-memory trade).
            full, worst = self.topk.full_and_worst()
            inside = ~full[lane_idx] | (dists < worst[lane_idx])
            lane_idx, flat = lane_idx[inside], flat[inside]
            ids, dists = ids[inside], dists[inside]
            n_accepted = np.bincount(lane_idx, minlength=self.b)
        self.accepted.append(n_accepted)
        self.visited[lane_idx * self.stride + ids] = True
        cand_keys = np.full(cand.shape, PAD_KEY, dtype=np.uint64)
        cand_keys.ravel()[flat] = pack_keys(dists, ids)
        # The discarded stop pop left the queue too: its slot is free
        # for this round's candidates, exactly as in the serial loop.
        frontier_evicted = self.frontier.merge(n_pop + stop, cand_keys)
        if config.visited_deletion:
            self.visited_len += n_accepted
            if frontier_evicted.shape[1]:
                self._delete_evicted(frontier_evicted)
            np.maximum(self.visited_peak, self.visited_len, out=self.visited_peak)

        self.active = process & ~stop
        return True

    def _delete_evicted(self, evicted_keys: np.ndarray) -> None:
        """Unmark evicted vertices (the visited-deletion optimization)."""
        real = evicted_keys != PAD_KEY
        if not real.any():
            return
        lane_idx, slot_idx = np.nonzero(real)
        ids = unpack_ids(evicted_keys[lane_idx, slot_idx])
        self.visited[lane_idx * self.stride + ids] = False
        n_deleted = real.sum(axis=1)
        self.visited_len -= n_deleted
        self.visited_deletes += n_deleted

    # -- result extraction ----------------------------------------------------

    def results(self) -> LaneResults:
        """Per-lane top-``k`` results, ascending, deduplicated by id, as
        ``(B, min(k, pool))`` arrays.

        Visited deletion can bring a vertex back into a pool that still
        holds it; the second copy is the same ``(distance, id)`` key, so it
        sits next to the first in the sorted row and is dropped there.
        O(B·pool) array work; no lane is decoded here.
        """
        keys = self.topk.keys
        keep = keys != PAD_KEY
        keep[:, 1:] &= keys[:, 1:] != keys[:, :-1]
        # Kept slots first, in row order: the first k of them are the lane's.
        order = np.argsort(~keep, axis=1, kind="stable")[:, : self.k]
        top = np.take_along_axis(keys, order, axis=1)
        return LaneResults.from_keys(top, np.take_along_axis(keep, order, axis=1))

    def fill_stats(self, stats: Sequence[SearchStats]) -> None:  # lint: allow(hot-loop)
        """Reduce the round log into caller-provided stats (O(rounds·B)).

        Every surviving pop fetches one adjacency row and updates the
        result pool once; every visited insert, and the seed, is one
        frontier push.  The first round pops every lane's seed, so each
        log has an entry.
        """
        masks = np.stack(self.pop_masks)
        pops = masks.sum(axis=(0, 2))
        iterations = masks[:, :, 0].sum(axis=0)
        # The drain round logs no row: its mask is all False.
        fetched = np.stack(self.fetched) * masks[: len(self.fetched)]
        tests = fetched.sum(axis=(0, 2))
        inserts = np.sum(self.accepted, axis=0)
        # Without deletion a lane's visited set never shrinks, so its
        # peak is its final size: the seed plus every insert.
        if self.config.visited_deletion:
            peak, deletes = self.visited_peak, self.visited_deletes
        else:
            peak, deletes = inserts + 1, np.zeros_like(inserts)
        columns = zip(
            stats,
            iterations.tolist(),
            np.sum(self.scored, axis=0).tolist(),
            inserts.tolist(),
            peak.tolist(),
            pops.tolist(),
            np.sum(self.stops, axis=0).tolist(),
            tests.tolist(),
            deletes.tolist(),
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

"""Parity suite: the vectorized lockstep engine vs the serial searcher.

The batched engine's correctness bar (ISSUE 1) is *bit-identical*
``(distance, id)`` lists against :meth:`SongSearcher.search` under exact
visited backends, across metrics, graphs and optimization configs —
plus SIMT-style edge cases (B=1, one lane finishing first) and the
packed-key machinery the structure-of-arrays state rests on.
"""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest

import repro.distances.metrics as metrics_module
from repro.core.batched import BatchedSongSearcher, _first_occurrence_mask
from repro.core.config import SearchConfig
from repro.core.song import SearchStats, SongSearcher
from repro.distances import Metric, get_metric
from repro.graphs import build_nsg, build_nsw
from repro.graphs.storage import FixedDegreeGraph
from repro.hashing import SignRandomProjection
from repro.structures.soa import (
    PAD_KEY,
    BatchedFrontier,
    BatchedTopK,
    pack_keys,
    unpack_distances,
    unpack_ids,
)


@pytest.fixture(scope="module")
def parity_data(rng):
    data = rng.standard_normal((400, 16)).astype(np.float32)
    queries = rng.standard_normal((24, 16)).astype(np.float32)
    return data, queries


@pytest.fixture(scope="module")
def parity_graphs(parity_data):
    data, _ = parity_data
    return {
        "nsw": build_nsw(data, m=8, ef_construction=32, seed=3),
        "nsg": build_nsg(data, degree=10, knn=10),
    }


#: Rows per ``Metric.gather_many`` tile in the ``*_across_tile_boundaries``
#: re-runs: every round then crosses tile boundaries inside a lane.
tiled = pytest.mark.parametrize("tile_rows", [1, 3, 7])


def force_tile(monkeypatch, data, tile_rows):
    """Make ``Metric.gather_many`` walk ``data``'s rows ``tile_rows`` at a time."""
    row_bytes = data.shape[1] * data.itemsize
    monkeypatch.setattr(metrics_module, "PANEL_BYTES", tile_rows * row_bytes)


def assert_exact_parity(searcher, queries, config):
    serial = searcher.search_batch(queries, config, engine="serial")
    batched = searcher.search_batch(queries, config, engine="batched")
    assert serial == batched  # (distance, id) tuples, bit-for-bit


# -- packed-key machinery -----------------------------------------------------


def test_pack_keys_orders_like_lexicographic_sort(rng):
    dists = rng.standard_normal(200).astype(np.float32)
    dists[:10] = 0.0
    dists[10:20] = -0.0
    dists[20:40] = dists[40:60]  # force distance ties -> id tie-break
    ids = rng.integers(0, 1000, size=200)
    keys = np.sort(pack_keys(dists, ids))
    expect = sorted(zip(dists.tolist(), ids.tolist()))
    got = list(zip(unpack_distances(keys).tolist(), unpack_ids(keys).tolist()))
    assert got == expect


def test_pack_unpack_roundtrip(rng):
    dists = np.array([-3.5, -0.0, 0.0, 1e-30, 7.25, 1e30], dtype=np.float32)
    ids = np.array([5, 0, 2**31 - 1, 1, 17, 42])
    keys = pack_keys(dists, ids)
    assert np.all(keys != PAD_KEY)
    assert unpack_ids(keys).tolist() == ids.tolist()
    back = unpack_distances(keys)
    assert np.array_equal(back, dists + np.float32(0.0))


def test_batched_topk_matches_bounded_heap_content(rng):
    from repro.structures.heap import TopKMaxHeap

    topk = BatchedTopK(batch=1, pool=8)
    heap = TopKMaxHeap(8)
    for _ in range(5):
        dists = rng.standard_normal(6).astype(np.float32)
        ids = rng.integers(0, 500, size=6)
        topk.merge(pack_keys(dists, ids)[None, :])
        for d, v in zip(dists.tolist(), ids.tolist()):
            heap.push_bounded(d, v)
    got = list(
        zip(
            unpack_distances(topk.keys[0, : int(topk.sizes()[0])]).tolist(),
            unpack_ids(topk.keys[0, : int(topk.sizes()[0])]).tolist(),
        )
    )
    assert got == sorted(heap.to_sorted_list())


def test_batched_frontier_bounded_eviction(rng):
    frontier = BatchedFrontier(batch=1, capacity=4)
    dists = np.array([0.5, 0.1, 0.9, 0.3, 0.7, 0.2], dtype=np.float32)
    ids = np.arange(6)
    frontier.seed(pack_keys(dists[:1], ids[:1]))
    new = pack_keys(dists[1:], ids[1:])[None, :]
    evicted = frontier.merge(
        np.zeros(1, dtype=np.int64), new, np.full(1, 5, dtype=np.int64)
    )
    kept = unpack_distances(frontier.keys[0]).tolist()
    assert kept == [pytest.approx(v) for v in [0.1, 0.2, 0.3, 0.5]]
    assert int(frontier.sizes[0]) == 4
    gone = evicted[evicted != PAD_KEY]
    assert sorted(unpack_distances(gone).tolist()) == [
        pytest.approx(0.7),
        pytest.approx(0.9),
    ]


# -- exact parity across metrics / graphs / configs ---------------------------


@pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
@pytest.mark.parametrize("graph_name", ["nsw", "nsg"])
def test_parity_across_metrics_and_graphs(
    parity_data, parity_graphs, graph_name, metric
):
    data, queries = parity_data
    searcher = SongSearcher(parity_graphs[graph_name], data)
    config = SearchConfig(k=10, queue_size=30, metric=metric)
    assert_exact_parity(searcher, queries, config)


@pytest.mark.parametrize(
    "bounded,selected,deletion",
    [
        (True, True, False),
        (True, True, True),
        (True, False, False),
        (True, False, True),
        (False, True, False),
        (False, False, False),
    ],
)
def test_parity_across_configs(parity_data, parity_graphs, bounded, selected, deletion):
    data, queries = parity_data
    searcher = SongSearcher(parity_graphs["nsw"], data)
    config = SearchConfig(
        k=10,
        queue_size=25,
        bounded_queue=bounded,
        selected_insertion=selected,
        visited_deletion=deletion,
    )
    assert_exact_parity(searcher, queries, config)


@pytest.mark.parametrize("probe_steps", [2, 4])
def test_parity_multi_step_probing(parity_data, parity_graphs, probe_steps):
    data, queries = parity_data
    searcher = SongSearcher(parity_graphs["nsw"], data)
    config = SearchConfig(k=10, queue_size=30, probe_steps=probe_steps)
    assert_exact_parity(searcher, queries, config)


@pytest.mark.parametrize("backend", ["hashtable", "pyset"])
def test_parity_exact_backends(parity_data, parity_graphs, backend):
    data, queries = parity_data
    searcher = SongSearcher(parity_graphs["nsw"], data)
    config = SearchConfig(k=10, queue_size=30, visited_backend=backend)
    assert_exact_parity(searcher, queries, config)


def test_parity_on_fixture_dataset(small_dataset, small_graph):
    searcher = SongSearcher(small_graph, small_dataset.data)
    config = SearchConfig(k=10, queue_size=40)
    assert_exact_parity(searcher, small_dataset.queries, config)


# -- SIMT lane-masking edge cases --------------------------------------------


def test_batch_of_one_matches_serial(parity_data, parity_graphs):
    data, queries = parity_data
    searcher = SongSearcher(parity_graphs["nsw"], data)
    config = SearchConfig(k=10, queue_size=30)
    serial = searcher.search(queries[0], config)
    batched = searcher.batched().search_batch(queries[:1], config)[0]
    assert serial == batched


def test_early_terminating_lane_does_not_disturb_others(parity_data, parity_graphs):
    # Lane 0 sits on the entry point (converges almost immediately); lane 1
    # is a far-away query that keeps expanding.  The masked-out lane must
    # stop contributing work without corrupting the active one.
    data, _ = parity_data
    graph = parity_graphs["nsw"]
    searcher = SongSearcher(graph, data)
    config = SearchConfig(k=5, queue_size=12)
    easy = data[graph.entry_point]
    hard = np.full(data.shape[1], 10.0, dtype=np.float32)
    queries = np.stack([easy, hard])
    stats = [SearchStats(), SearchStats()]
    batched = searcher.search_batch(
        queries, config, engine="batched", stats=stats
    )
    assert batched[0] == searcher.search(easy, config)
    assert batched[1] == searcher.search(hard, config)
    # The lanes really did terminate at different rounds.
    assert stats[0].iterations != stats[1].iterations


def test_empty_batch():
    data = np.zeros((10, 4), dtype=np.float32)
    graph = build_nsw(data + np.arange(10, dtype=np.float32)[:, None], m=4, seed=0)
    searcher = SongSearcher(graph, np.ascontiguousarray(data + np.arange(10, dtype=np.float32)[:, None]))
    config = SearchConfig(k=2, queue_size=4)
    assert searcher.search_batch(np.zeros((0, 4), dtype=np.float32), config) == []


# -- dispatch and operation records ------------------------------------------


def test_auto_dispatch_uses_batched_engine(parity_data, parity_graphs):
    data, queries = parity_data
    searcher = SongSearcher(parity_graphs["nsw"], data)
    config = SearchConfig(k=5, queue_size=20)
    assert searcher.supports_batched(config)
    auto = searcher.search_batch(queries, config)
    assert auto == searcher.search_batch(queries, config, engine="batched")


def test_probabilistic_backends_fall_back_to_serial(parity_data, parity_graphs):
    data, queries = parity_data
    searcher = SongSearcher(parity_graphs["nsw"], data)
    config = SearchConfig(k=5, queue_size=20, visited_backend="bloom")
    assert not searcher.supports_batched(config)
    # auto mode silently runs the serial loop ...
    results = searcher.search_batch(queries[:4], config)
    assert len(results) == 4
    # ... while forcing the batched engine is a hard error.
    with pytest.raises(ValueError, match="exact visited backend"):
        searcher.search_batch(queries[:4], config, engine="batched")


@pytest.fixture(scope="module")
def packed_search(parity_data):
    """The parity data hashed to 64-bit signatures, an exact Hamming kNN
    graph over them, and the queries' signatures."""
    data, queries = parity_data
    projector = SignRandomProjection(data.shape[1], num_bits=64, seed=0)
    signatures = projector.transform(data)
    hamming = get_metric("hamming")
    adjacency = []
    for v in range(len(signatures)):
        d = hamming.batch(signatures[v], signatures)
        d[v] = np.inf
        adjacency.append(np.argsort(d, kind="stable")[:8].tolist())
    graph = FixedDegreeGraph.from_adjacency(adjacency, degree=8)
    return SongSearcher(graph, signatures), projector.transform(queries)


def test_stats_match_serial(
    parity_data, parity_graphs, packed_search, before_case=lambda searcher: None
):
    data, queries = parity_data
    floats = SongSearcher(parity_graphs["nsw"], data)
    hashed, query_signatures = packed_search
    for searcher, batch, options in (
        (floats, queries, dict(probe_steps=2)),
        (floats, queries, dict(visited_deletion=True)),
        (floats, queries, dict(probe_steps=2, visited_deletion=True, selected_insertion=False)),
        (floats, queries, dict(probe_steps=4, selected_insertion=True, visited_deletion=True)),
        (
            hashed,
            query_signatures,
            dict(metric="hamming", probe_steps=2, selected_insertion=True, visited_deletion=True),
        ),
    ):
        config = SearchConfig(k=10, queue_size=30, **options)
        before_case(searcher)
        serial_stats = [SearchStats() for _ in batch]
        batched_stats = [SearchStats() for _ in batch]
        serial = searcher.search_batch(batch, config, engine="serial", stats=serial_stats)
        batched = searcher.search_batch(batch, config, engine="batched", stats=batched_stats)
        assert serial == batched, options
        for ser, bat in zip(serial_stats, batched_stats):
            for name in SearchStats.__slots__:
                assert getattr(ser, name) == getattr(bat, name), (options, name)
        if config.visited_deletion:
            assert any(s.visited_deletes for s in serial_stats)


@tiled
def test_stats_match_serial_across_tile_boundaries(
    parity_data, parity_graphs, packed_search, monkeypatch, tile_rows
):
    test_stats_match_serial(
        parity_data,
        parity_graphs,
        packed_search,
        before_case=lambda searcher: force_tile(monkeypatch, searcher.data, tile_rows),
    )


class _StructureTally:
    """What the serial searcher's structures actually saw, in order."""

    def __init__(self):
        self.events = []
        self.row_slots = 0
        self.distance_rows = 0
        self.visited_sets = []
        self.visited_lens = []

    def saw(self, event):
        self.events.append(event)
        if event == "pop":
            # Nothing touches ``visited`` between the end of one iteration
            # and the next one's first pop.
            self.visited_lens.append(len(self.visited_sets[-1]))

    def counting(self, cls, **events):
        """Subclass of ``cls`` whose named methods report their event first."""

        def reporting(name, event):
            def method(structure, *args):
                self.saw(event)
                return getattr(cls, name)(structure, *args)

            return method

        return type(cls.__name__, (cls,), {n: reporting(n, e) for n, e in events.items()})


@pytest.mark.parametrize(
    "options",
    [
        dict(),
        dict(selected_insertion=True, visited_deletion=True),
        dict(probe_steps=2, visited_deletion=True),
        dict(bounded_queue=False, probe_steps=3),
    ],
    ids=lambda options: "-".join(options) or "plain",
)
def test_record_counts_are_what_the_structures_saw(
    parity_data, parity_graphs, monkeypatch, options
):
    """The operation record is all that pricing reads, so every field has
    to say what the frontier, the result pool, the visited set, the graph
    and the distance kernel were really asked to do."""
    from repro.core import song

    data, queries = parity_data
    graph = parity_graphs["nsw"]
    config = SearchConfig(k=10, queue_size=30, **options)
    tally = _StructureTally()

    counted = tally.counting(song.VisitedSet, contains="test", insert="insert", delete="delete")

    class Visited(counted):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            tally.visited_sets.append(self)

    monkeypatch.setattr(song, "VisitedSet", Visited)
    monkeypatch.setattr(song, "TopKMaxHeap", tally.counting(song.TopKMaxHeap, push_bounded="topk"))
    if config.bounded_queue:
        frontier = tally.counting(song.BoundedPriorityQueue, push="push", pop_min="pop")
        monkeypatch.setattr(song, "BoundedPriorityQueue", frontier)
    else:
        monkeypatch.setattr(song, "MinHeap", tally.counting(song.MinHeap, push="push", pop="pop"))

    def neighbors(vertex, fetch=graph.neighbors):
        row = fetch(vertex)
        tally.saw("row")
        tally.row_slots += len(row)
        return row

    monkeypatch.setattr(graph, "neighbors", neighbors)

    def batch(metric, query, rows, norms=None, score=Metric.batch):
        tally.distance_rows += len(rows)
        return score(metric, query, rows, norms)

    monkeypatch.setattr(Metric, "batch", batch)

    searcher = SongSearcher(graph, data)
    stats = SearchStats()
    searches = 6
    for query in queries[:searches]:
        searcher.search(query, config, stats=stats)

    seen = Counter(tally.events)
    boundaries = [e for e in tally.events if e in ("pop", "topk")]
    saw = {
        # an iteration is a run of pops that reaches the result pool
        "iterations": sum(
            a == "pop" and b == "topk" for a, b in zip(boundaries, boundaries[1:])
        ),
        "distance_computations": tally.distance_rows - searches,
        "visited_peak": max(tally.visited_lens + [len(v) for v in tally.visited_sets]),
        "visited_inserts": seen["insert"] - searches,
        "searches": searches,
        "frontier_pops": seen["pop"],
        "rows_fetched": seen["row"],
        "visited_tests": tally.row_slots,
        "visited_deletes": seen["delete"],
        "topk_updates": seen["topk"],
        "frontier_pushes": seen["push"],
    }
    assert {name: getattr(stats, name) for name in saw} == saw
    # One visited test per adjacency slot; the filter itself is asked
    # unless an earlier row of the same round already claimed the vertex.
    if config.probe_steps == 1:
        assert seen["test"] == stats.visited_tests
    else:
        assert seen["test"] <= stats.visited_tests
    assert bool(stats.visited_deletes) == config.visited_deletion


# -- hostile adjacency: repeats, overlaps, PAD rows, zero-survivor rounds ------


def assert_results_and_records_match(searcher, queries, config):
    """Serial ⇔ lockstep on the result lists and all eleven record fields."""
    serial_stats = [SearchStats() for _ in queries]
    batched_stats = [SearchStats() for _ in queries]
    serial = searcher.search_batch(queries, config, engine="serial", stats=serial_stats)
    batched = searcher.search_batch(queries, config, engine="batched", stats=batched_stats)
    assert serial == batched
    for lane, (ser, bat) in enumerate(zip(serial_stats, batched_stats)):
        for name in SearchStats.__slots__:
            assert getattr(ser, name) == getattr(bat, name), (lane, name)
    return batched_stats


def _cube_first_occurrence(cand, valid):
    """The O(L^2) ``(B, L, L)`` formula the engine used to run: the oracle."""
    num_slots = cand.shape[1]
    same = cand[:, :, None] == cand[:, None, :]
    earlier = np.tri(num_slots, num_slots, -1, dtype=bool)
    return valid & ~(same & valid[:, None, :] & earlier[None]).any(axis=2)


def test_first_occurrence_mask_equals_the_cube_formula():
    rng = np.random.default_rng(7)
    for batch, slots, num_ids in ((1, 1, 1), (1, 8, 3), (5, 32, 6), (33, 128, 40), (7, 24, 10**6)):
        for _ in range(20):
            cand = rng.integers(-1, num_ids, size=(batch, slots))
            valid = (cand != -1) & (rng.random((batch, slots)) < 0.7)
            got = _first_occurrence_mask(cand, valid)
            assert got.dtype == np.bool_
            assert np.array_equal(got, _cube_first_occurrence(cand, valid))


HOSTILE_N = 90


@pytest.fixture(scope="module")
def hostile_graph():
    """Adjacency no builder would emit but ``set_neighbors`` accepts.

    Every row repeats ids and draws on a handful of vertices, so rows
    popped in one multi-step round overlap; vertices 6 and 7 hold the same
    row; vertex 4 has no neighbours at all; and the entry's neighbours 1
    and 2 see only each other, the entry and 3, so a lane that pops one of
    them in round 2 finds every neighbour already visited.
    """
    rng = np.random.default_rng(11)
    degree = 8
    graph = FixedDegreeGraph(HOSTILE_N, degree, entry_point=0)
    for v in range(HOSTILE_N):
        pool = rng.choice(np.delete(np.arange(HOSTILE_N), v), size=4, replace=False)
        graph.set_neighbors(v, rng.choice(pool, size=rng.integers(3, degree + 1)).tolist())
    graph.set_neighbors(0, [1, 2, 3, 2, 1])
    graph.set_neighbors(1, [0, 2, 3, 3])
    graph.set_neighbors(2, [3, 0, 1, 0])
    graph.set_neighbors(3, [0, 1, 2, 4, 5, 4, 6, 7])
    graph.set_neighbors(4, [])
    graph.set_neighbors(6, [8, 9, 8, 10, 11, 9])
    graph.set_neighbors(7, [8, 9, 8, 10, 11, 9])
    return graph


@pytest.fixture(scope="module")
def hostile_searchers(hostile_graph):
    """``metric -> (searcher, 33 queries)``; query 0 sits on vertex 1."""
    rng = np.random.default_rng(12)
    data = rng.standard_normal((HOSTILE_N, 12)).astype(np.float32)
    queries = rng.standard_normal((33, 12)).astype(np.float32)
    queries[0] = data[1]
    projector = SignRandomProjection(12, num_bits=64, seed=0)
    floats = SongSearcher(hostile_graph, data)
    hashed = SongSearcher(hostile_graph, projector.transform(data))
    return {
        "l2": (floats, queries),
        "cosine": (floats, queries),
        "hamming": (hashed, projector.transform(queries)),
    }


@pytest.mark.parametrize("metric", ["l2", "cosine", "hamming"])
@pytest.mark.parametrize(
    "options",
    [dict(), dict(selected_insertion=True, visited_deletion=True)],
    ids=["plain", "selected-deletion"],
)
@pytest.mark.parametrize("probe_steps", [1, 2, 4])
@pytest.mark.parametrize("lanes", [1, 33])
def test_hostile_adjacency_parity(hostile_searchers, lanes, probe_steps, options, metric):
    searcher, queries = hostile_searchers[metric]
    config = SearchConfig(
        k=5, queue_size=12, metric=metric, probe_steps=probe_steps, **options
    )
    assert_results_and_records_match(searcher, queries[:lanes], config)


@pytest.mark.parametrize("metric", ["l2", "cosine", "hamming"])
@pytest.mark.parametrize(
    "options",
    [dict(), dict(selected_insertion=True, visited_deletion=True)],
    ids=["plain", "selected-deletion"],
)
@pytest.mark.parametrize("probe_steps", [1, 2, 4])
@pytest.mark.parametrize("lanes", [1, 33])
@tiled
def test_hostile_adjacency_parity_across_tile_boundaries(
    hostile_searchers, monkeypatch, tile_rows, lanes, probe_steps, options, metric
):
    force_tile(monkeypatch, hostile_searchers[metric][0].data, tile_rows)
    test_hostile_adjacency_parity(hostile_searchers, lanes, probe_steps, options, metric)


@pytest.mark.parametrize("metric", ["l2", "cosine", "hamming"])
def test_zero_survivor_round_scores_an_empty_panel(hostile_searchers, monkeypatch, metric):
    """Lane 0 pops vertex 1 in round 2 and every neighbour is visited: at
    B = 1 that round has no survivor at all, and is still one round."""
    searcher, queries = hostile_searchers[metric]
    panel_rows = []

    def batch_many(self, queries, points, norms=None, score=Metric.batch_many):
        panel_rows.append(points.shape[0] * points.shape[1])
        return score(self, queries, points, norms)

    config = SearchConfig(k=5, queue_size=12, metric=metric)
    monkeypatch.setattr(Metric, "batch_many", batch_many)
    stats = [SearchStats()]
    searcher.search_batch(queries[:1], config, engine="batched", stats=stats)
    # seed, round 1 (the entry's three distinct neighbours), round 2 (nothing)
    assert panel_rows[:3] == [1, 3, 0]
    assert len(panel_rows) == 1 + stats[0].iterations
    assert sum(panel_rows) == 1 + stats[0].distance_computations


@pytest.mark.parametrize("deletion", [False, True])
def test_lane_retiring_in_round_one_beside_long_lanes(parity_data, parity_graphs, deletion):
    """With a one-slot pool the entry fills the top-k in round 1, so a
    query sitting on the entry has every neighbour refused by selected
    insertion and retires there while the other lanes descend for rounds."""
    data, queries = parity_data
    graph = parity_graphs["nsw"]
    batch = np.concatenate([data[graph.entry_point][None, :], 3.0 * queries, queries[:8]])
    assert len(batch) == 33
    config = SearchConfig(
        k=1, queue_size=1, selected_insertion=True, visited_deletion=deletion
    )
    stats = assert_results_and_records_match(SongSearcher(graph, data), batch, config)
    assert stats[0].iterations == 1 and stats[0].visited_inserts == 0
    assert max(s.iterations for s in stats) >= 4


@pytest.mark.parametrize("deletion", [False, True])
@tiled
def test_lane_retiring_in_round_one_across_tile_boundaries(
    parity_data, parity_graphs, monkeypatch, tile_rows, deletion
):
    force_tile(monkeypatch, parity_data[0], tile_rows)
    test_lane_retiring_in_round_one_beside_long_lanes(parity_data, parity_graphs, deletion)


def test_event_meter_is_refused(parity_data, parity_graphs):
    """``meter=`` survives on the lockstep engine only for callers that
    forward ``None``; anything else is pointed at the operation record."""
    data, queries = parity_data
    searcher = BatchedSongSearcher(parity_graphs["nsw"], data)
    config = SearchConfig(k=5, queue_size=20)
    assert searcher.search_batch(queries, config, meter=None) == searcher.search_batch(
        queries, config
    )
    with pytest.raises(TypeError, match="SearchStats"):
        searcher.search_batch(queries, config, meter=object())


# -- one query/config validation under both engines ---------------------------


@pytest.mark.parametrize("engine", ["serial", "batched", "auto"])
def test_data_and_metric_must_agree(parity_data, parity_graphs, packed_search, engine):
    """Packed signatures under a float metric subtract with wraparound and
    float rows under Hamming XOR garbage: both used to return neighbours."""
    data, queries = parity_data
    hashed, query_signatures = packed_search
    with pytest.raises(ValueError, match="hamming"):
        hashed.search_batch(query_signatures, SearchConfig(k=5, queue_size=20), engine=engine)
    floats = SongSearcher(parity_graphs["nsw"], data)
    config = SearchConfig(k=5, queue_size=20, metric="hamming")
    with pytest.raises(ValueError, match="hamming"):
        floats.search_batch(queries, config, engine=engine)


@pytest.mark.parametrize("engine", ["serial", "batched", "auto"])
def test_float_queries_to_a_packed_index_are_refused(parity_data, packed_search, engine):
    _, queries = parity_data
    hashed, _ = packed_search
    config = SearchConfig(k=5, queue_size=20, metric="hamming")
    with pytest.raises(ValueError, match="uint32"):
        hashed.search_batch(queries[:, :2], config, engine=engine)
    with pytest.raises(ValueError, match="uint32"):
        hashed.search(queries[0, :2], config)


def test_narrow_query_is_refused_at_every_batch_size(parity_data, parity_graphs):
    """A dim-1 query used to broadcast through the serial engine (which
    ``B = 1`` dispatches to) and raise only from the lockstep one."""
    data, _ = parity_data
    searcher = SongSearcher(parity_graphs["nsw"], data)
    config = SearchConfig(k=5, queue_size=20)
    narrow = np.array([[0.3]], dtype=np.float32)
    with pytest.raises(ValueError, match="dim 1 but data has dim 16"):
        searcher.search(narrow[0], config)
    for batch in (narrow, np.repeat(narrow, 2, axis=0)):
        for engine in ("auto", "serial", "batched"):
            with pytest.raises(ValueError, match="dim 1 but data has dim 16"):
                searcher.search_batch(batch, config, engine=engine)


def test_no_distance_override(parity_data, parity_graphs):
    data, queries = parity_data
    searcher = SongSearcher(parity_graphs["nsw"], data)
    with pytest.raises(TypeError):
        searcher.search(
            queries[0], SearchConfig(k=5, queue_size=20), distance_fn=get_metric("l2").batch
        )


def test_stats_length_mismatch_rejected(parity_data, parity_graphs):
    data, queries = parity_data
    searcher = SongSearcher(parity_graphs["nsw"], data)
    config = SearchConfig(k=5, queue_size=20)
    with pytest.raises(ValueError, match="stats"):
        searcher.search_batch(queries, config, stats=[SearchStats()])


# -- float32 coercion ---------------------------------------------------------


def test_float64_dataset_warns_and_coerces(rng):
    data64 = rng.standard_normal((60, 8))
    assert data64.dtype == np.float64
    graph = build_nsw(data64.astype(np.float32), m=4, seed=1)
    with pytest.warns(UserWarning, match="float32"):
        searcher = SongSearcher(graph, data64)
    assert searcher.data.dtype == np.float32
    assert searcher.data.flags["C_CONTIGUOUS"]
    config = SearchConfig(k=3, queue_size=8)
    queries = rng.standard_normal((6, 8)).astype(np.float32)
    assert_exact_parity(searcher, queries, config)


def test_float32_dataset_not_copied(rng):
    data = np.ascontiguousarray(rng.standard_normal((50, 8)).astype(np.float32))
    graph = build_nsw(data, m=4, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        searcher = SongSearcher(graph, data)
    assert searcher.data is data
    assert searcher.batched().data is data


def test_norms_cache_shared_between_engines(parity_data, parity_graphs):
    data, queries = parity_data
    searcher = SongSearcher(parity_graphs["nsw"], data)
    config = SearchConfig(k=5, queue_size=20, metric="cosine")
    searcher.search_batch(queries, config, engine="batched")
    assert searcher.batched().data_norms() is searcher.data_norms()
    expect = np.linalg.norm(data, axis=1)
    assert np.array_equal(searcher.data_norms(), expect)


# -- per-lane entry points (used by batched graph construction) ---------------


def test_entry_points_default_matches_explicit(parity_data, parity_graphs):
    data, queries = parity_data
    graph = parity_graphs["nsw"]
    searcher = BatchedSongSearcher(graph, data)
    config = SearchConfig(k=5, queue_size=20)
    default = searcher.search_batch(queries, config)
    entries = np.full(len(queries), graph.entry_point, dtype=np.int64)
    explicit = searcher.search_batch(queries, config, entry_points=entries)
    assert default == explicit


def test_entry_points_change_the_search(parity_data, parity_graphs):
    data, queries = parity_data
    graph = parity_graphs["nsw"]
    searcher = BatchedSongSearcher(graph, data)
    # A tiny exploration budget keeps lanes near their start vertex, so
    # different entry points must surface in the result lists.
    config = SearchConfig(k=5, queue_size=5)
    entries = np.arange(len(queries), dtype=np.int64) % graph.num_vertices
    moved = searcher.search_batch(queries, config, entry_points=entries)
    baseline = searcher.search_batch(queries, config)
    assert moved != baseline


def test_entry_points_bad_shape_rejected(parity_data, parity_graphs):
    data, queries = parity_data
    searcher = BatchedSongSearcher(parity_graphs["nsw"], data)
    config = SearchConfig(k=5, queue_size=20)
    with pytest.raises(ValueError, match="entry_points"):
        searcher.search_batch(
            queries, config, entry_points=np.zeros(3, dtype=np.int64)
        )


def test_entry_points_out_of_range_rejected(parity_data, parity_graphs):
    data, queries = parity_data
    graph = parity_graphs["nsw"]
    searcher = BatchedSongSearcher(graph, data)
    config = SearchConfig(k=5, queue_size=20)
    entries = np.full(len(queries), graph.num_vertices, dtype=np.int64)
    with pytest.raises(ValueError, match="out of range"):
        searcher.search_batch(queries, config, entry_points=entries)

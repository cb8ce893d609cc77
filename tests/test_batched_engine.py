"""Parity suite: the vectorized lockstep engine vs the serial searcher.

The batched engine's correctness bar (ISSUE 1) is *bit-identical*
``(distance, id)`` lists against :meth:`SongSearcher.search` under exact
visited backends, across metrics, graphs and optimization configs —
plus SIMT-style edge cases (B=1, one lane finishing first) and the
packed-key machinery the structure-of-arrays state rests on.
"""

from __future__ import annotations

import gc
import json
import operator
import pickle
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import repro.distances.metrics as metrics_module
from repro.core.batched import (
    BatchedSongSearcher,
    LaneResults,
    LaneView,
    _first_occurrence_mask,
)
from repro.core.config import SearchConfig
from repro.core.song import SearchStats, SongSearcher
from repro.distances import Metric, get_metric
from repro.graphs import build_nsg, build_nsw
from repro.graphs.storage import PAD, FixedDegreeGraph
from repro.hashing import SignRandomProjection
from repro.serve import ServerConfig, build_server, drive_poisson, run_virtual
from repro.structures.soa import (
    PAD_KEY,
    BatchedFrontier,
    BatchedTopK,
    pack_keys,
    pack_rowid,
    unpack_distances,
    unpack_ids,
    unpack_rowid,
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


def test_pack_rowid_refuses_what_int64_cannot_hold():
    n = 2**31
    top = (2**63 - 1 - (n - 1)) // n  # the largest row whose keys all fit
    rows, ids = np.array([0, top]), np.array([5, n - 1])
    assert [a.tolist() for a in unpack_rowid(pack_rowid(rows, ids, n), n)] == [
        rows.tolist(), ids.tolist()
    ]
    with pytest.raises(OverflowError):
        pack_rowid(np.array([top + 1]), np.array([0]), n)
    with pytest.raises(ValueError):
        pack_rowid(np.array([0]), np.array([n]), n)


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
    real = topk.keys[0][topk.keys[0] != PAD_KEY]
    got = list(zip(unpack_distances(real).tolist(), unpack_ids(real).tolist()))
    assert got == sorted(heap.to_sorted_list())


def test_batched_frontier_bounded_eviction(rng):
    frontier = BatchedFrontier(batch=1, capacity=4)
    dists = np.array([0.5, 0.1, 0.9, 0.3, 0.7, 0.2], dtype=np.float32)
    ids = np.arange(6)
    frontier.seed(pack_keys(dists[:1], ids[:1]))
    new = pack_keys(dists[1:], ids[1:])[None, :]
    evicted = frontier.merge(np.zeros(1, dtype=np.int64), new)
    kept = unpack_distances(frontier.keys[0]).tolist()
    assert kept == [pytest.approx(v) for v in [0.1, 0.2, 0.3, 0.5]]
    assert int((frontier.keys[0] != PAD_KEY).sum()) == 4
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
    empty = np.zeros((0, 4), dtype=np.float32)
    assert searcher.search_batch(empty, config) == []
    results = searcher.batched().search_batch(empty, config)
    assert results.ids.shape == results.dists.shape == (0, 2)
    assert results == [] and not results and results[:] == [] and repr(results) == "[]"
    with pytest.raises(IndexError):
        results[0]


# -- lazy results: lanes stay arrays until read --------------------------------


@pytest.fixture(scope="module")
def short_lane_searcher():
    """Ten points whose entry component holds four (a 4-cycle; the other
    six form their own ring): at k = 6 every lane ends two slots short,
    in ``PAD``."""
    rng = np.random.default_rng(5)
    data = rng.standard_normal((10, 4)).astype(np.float32)
    graph = FixedDegreeGraph(10, 2, entry_point=0)
    for v in range(4):
        graph.set_neighbors(v, [(v + 1) % 4, (v + 3) % 4])
    for v in range(4, 10):
        graph.set_neighbors(v, [4 + (v - 3) % 6])
    return SongSearcher(graph, data), rng.standard_normal((5, 4)).astype(np.float32)


@pytest.mark.parametrize("k", [3, 6])
def test_lazy_lanes_equal_the_serial_lists(short_lane_searcher, k):
    searcher, queries = short_lane_searcher
    config = SearchConfig(k=k, queue_size=8)
    serial = searcher.search_batch(queries, config, engine="serial")
    batched = searcher.search_batch(queries, config, engine="batched")
    assert isinstance(batched, LaneResults) and len(batched) == len(serial)
    for lane, expected in zip(batched, serial):
        assert isinstance(lane, LaneView)
        assert lane == expected and expected == lane and not lane != expected
        assert list(lane) == expected and len(lane) == len(expected) == min(k, 4)
    assert (batched.ids[:, 4:] == PAD).all() and np.isinf(batched.dists[:, 4:]).all()


def test_lanes_index_slice_and_repr_as_lists(short_lane_searcher):
    searcher, queries = short_lane_searcher
    results = searcher.batched().search_batch(queries, SearchConfig(k=6, queue_size=8))
    plain = [list(lane) for lane in results]
    for i in range(-len(plain), len(plain)):
        lane = results[i]
        assert lane == plain[i] and repr(lane) == repr(plain[i])
        assert lane[-1] == plain[i][-1] and lane[1:3] == plain[i][1:3]
        with pytest.raises(IndexError):
            lane[len(plain[i])]
    for part in (slice(1, 3), slice(None, None, -2), slice(-2, None), slice(7, 9)):
        assert results[part] == plain[part]
    assert repr(results) == repr(plain) and str(results) == str(plain)
    assert json.dumps(results) == json.dumps(plain)
    assert pickle.loads(pickle.dumps(results)) == plain
    for bad in (len(plain), -len(plain) - 1):
        with pytest.raises(IndexError):
            results[bad]
    with pytest.raises(TypeError, match="read-only"):
        results[0].append((0.0, 0))
    with pytest.raises(TypeError, match="read-only"):
        results[0] = []


def test_every_list_read_answers_as_the_plain_list(short_lane_searcher):
    """A view's own list storage is empty: any read it did not route to
    its items would answer for an empty list."""
    searcher, queries = short_lane_searcher
    results = searcher.batched().search_batch(queries, SearchConfig(k=6, queue_size=8))
    plain = [list(lane) for lane in results]
    for view, ref in ((results, plain), (results[0], plain[0])):
        item = ref[-1]
        assert item in view and ("x", -1) not in view
        assert view.index(item) == ref.index(item) and view.count(item) == 1
        assert list(reversed(view)) == ref[::-1]
        assert view.copy() == ref and type(view.copy()) is list
        assert view + [None] == ref + [None] and [None] + view == [None] + ref
        assert view * 2 == ref * 2 and 2 * view == 2 * ref
    for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
        expected = op(plain[0], plain[1])
        assert op(results[0], results[1]) == op(plain[0], results[1]) == expected


def test_building_lane_results_allocates_nothing_per_lane():
    lanes, width = 4096, 10
    ids = np.tile(np.arange(width, dtype=np.int64), (lanes, 1))
    dists = np.ones((lanes, width), dtype=np.float32)
    tracemalloc.start()
    try:
        results = LaneResults(ids, dists)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == lanes and len(results[-1]) == width
    # One object; decoding every lane into tuples would take ~5 MB.
    assert peak < 1024


def test_a_served_response_holds_a_lane_not_its_tuples(small_dataset, small_graph):
    """Bytes the responses of 300 served requests keep alive, per response:
    the response, its lane view and its share of the batch's arrays.  A
    response that held its decoded ``(distance, id)`` list kept ≈ 1.3 kB."""

    async def main():
        server = build_server(
            small_graph, small_dataset.data, ServerConfig(base=SearchConfig(k=10, queue_size=32))
        )
        await server.start()
        tracemalloc.start()
        try:
            responses = await drive_poisson(server, small_dataset.queries, 20_000, 300, seed=2)
            await server.stop()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            served = sum(r.ok for r in responses)
            del responses
            gc.collect()
            return (held - tracemalloc.get_traced_memory()[0]) / served, served
        finally:
            tracemalloc.stop()

    per_response, served = run_virtual(main())
    assert served == 300
    assert per_response < 768


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


SENTINEL_ROWS = {0: [1, 5], 1: [], 2: [0, 5], 3: [5, 2, 4], 4: [3, 5], 5: [4, 3, 0]}


@pytest.mark.parametrize(
    "options",
    [
        dict(),
        dict(probe_steps=2),
        dict(selected_insertion=True, visited_deletion=True),
        dict(probe_steps=3, selected_insertion=True, visited_deletion=True),
    ],
    ids=["plain", "two-step", "selected-deletion", "three-step-selected-deletion"],
)
def test_pad_sentinel_never_aliases_the_last_vertex(options):
    """PAD (-1) reads the visited bitmap's sentinel column n, never vertex
    n - 1: rows end in PAD right after vertex 5 = n - 1, vertex 1's row is
    all PAD and the degree (8) exceeds n (6).  Lanes start at vertex 0,
    where 5 is still unvisited when the first such row is popped, and at
    vertex 5 itself; each lane's results and eleven record fields must
    equal a serial search from the same entry point."""
    n, degree = 6, 8
    rng = np.random.default_rng(21)
    data = rng.standard_normal((n, 4)).astype(np.float32)
    queries = np.concatenate([data + 0.01, data[::-1] - 0.02]).astype(np.float32)
    entries = np.array([0, 5] * (len(queries) // 2))
    config = SearchConfig(k=2, queue_size=3, **options)
    graphs = {}
    for entry in (0, 5):
        graphs[entry] = FixedDegreeGraph(n, degree, entry_point=entry)
        for vertex, row in SENTINEL_ROWS.items():
            graphs[entry].set_neighbors(vertex, row)
    serial_stats = [SearchStats() for _ in queries]
    serial = [
        SongSearcher(graphs[entry], data).search(q, config, stats=st)
        for q, entry, st in zip(queries, entries.tolist(), serial_stats)
    ]
    batched_stats = [SearchStats() for _ in queries]
    batched = BatchedSongSearcher(graphs[0], data).search_batch(
        queries, config, stats=batched_stats, entry_points=entries
    )
    assert batched == serial
    for lane, (ser, bat) in enumerate(zip(serial_stats, batched_stats)):
        for name in SearchStats.__slots__:
            assert getattr(ser, name) == getattr(bat, name), (lane, name)
    assert any(5 in [v for _, v in lane] for lane in serial)


REPEAT_OPTIONS = pytest.mark.parametrize(
    "options",
    [dict(), dict(selected_insertion=True, visited_deletion=True)],
    ids=["plain", "selected-deletion"],
)


def _repeat_free_graph(rng, n=60, degree=6):
    """A validated ``from_neighbor_array`` graph: rows never repeat an id,
    and each ends in one PAD slot."""
    rows = np.full((n, degree), -1)
    for v in range(n):
        rows[v, :-1] = rng.choice(np.delete(np.arange(n), v), size=degree - 1, replace=False)
    return FixedDegreeGraph.from_neighbor_array(rows, entry_point=0)


@REPEAT_OPTIONS
def test_unvalidated_graph_with_repeats_keeps_the_dedupe(options):
    """A ``validate=False`` graph whose rows repeat ids: at probe_steps=1
    one row is the whole window, and the repeats must still be dropped."""
    rng = np.random.default_rng(31)
    n, degree = 60, 6
    rows = rng.integers(1, n, size=(n, degree))
    rows[:, 1] = rows[:, 0]  # every row repeats its first id
    graph = FixedDegreeGraph.from_neighbor_array(rows, entry_point=0, validate=False)
    assert not graph.repeat_free
    data = rng.standard_normal((n, 8)).astype(np.float32)
    queries = rng.standard_normal((9, 8)).astype(np.float32)
    config = SearchConfig(k=4, queue_size=10, probe_steps=1, **options)
    assert_results_and_records_match(SongSearcher(graph, data), queries, config)


@REPEAT_OPTIONS
def test_set_neighbors_clears_the_repeat_free_flag(options):
    """Searched once as repeat-free, then given a row that repeats an id:
    the next search must dedupe again (a stale flag would score the
    repeat twice and miscount distance computations)."""
    rng = np.random.default_rng(32)
    graph = _repeat_free_graph(rng)
    data = rng.standard_normal((graph.num_vertices, 8)).astype(np.float32)
    queries = rng.standard_normal((9, 8)).astype(np.float32)
    config = SearchConfig(k=4, queue_size=10, probe_steps=1, **options)
    searcher = SongSearcher(graph, data)
    assert graph.repeat_free
    assert_results_and_records_match(searcher, queries, config)
    entry_row = graph.neighbors(0).tolist()
    graph.set_neighbors(0, entry_row + entry_row[:1])
    assert not graph.repeat_free
    stats = assert_results_and_records_match(searcher, queries, config)
    # The entry's row is every lane's first round: the repeat is seen once.
    assert all(s.visited_tests >= len(entry_row) + 1 for s in stats)


def test_results_drop_a_repeated_pool_entry_in_the_serial_order():
    """A visited-deletion search, then the same vertex twice in a pool:
    ``results()`` returns it once, keeping the serial engine's order
    (ascending, first appearance of each id, at most k)."""
    from repro.core.batched import _LockstepState

    rng = np.random.default_rng(33)
    graph = _repeat_free_graph(rng)
    data = rng.standard_normal((graph.num_vertices, 8)).astype(np.float32)
    queries = rng.standard_normal((5, 8)).astype(np.float32)
    config = SearchConfig(k=4, queue_size=8, visited_deletion=True, selected_insertion=True)
    assert_results_and_records_match(SongSearcher(graph, data), queries, config)
    state = _LockstepState(BatchedSongSearcher(graph, data), queries, config)
    while state.round():
        pass
    keys = state.topk.keys
    assert (keys != PAD_KEY).all()
    # Lane 0 holds its best entry twice, lane 3 its third: the copies
    # displace each pool's worst entry, as a re-admitted vertex would.
    keys[0] = np.sort(np.concatenate([keys[0, :-1], keys[0, :1]]))
    keys[3] = np.sort(np.concatenate([keys[3, :-1], keys[3, 2:3]]))
    expected = []
    for row in keys:
        lane, seen = [], set()
        for dist, vertex in zip(unpack_distances(row).tolist(), unpack_ids(row).tolist()):
            if vertex not in seen:
                seen.add(vertex)
                lane.append((dist, vertex))
        expected.append(lane[: config.k])
    got = state.results()
    assert got == expected
    assert [v for _, v in got[0]] == [v for _, v in expected[0]]
    assert len({v for _, v in got[0]}) == config.k


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

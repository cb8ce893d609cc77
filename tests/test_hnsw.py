"""HNSW index tests."""

import collections
import itertools

import numpy as np
import pytest

from repro.core.cpu_song import price_records
from repro.core.machine import DEFAULT_CPU
from repro.core.song import SearchStats
from repro.data import make_dataset
from repro.distances import get_metric
from repro.eval import batch_recall
from repro.graphs._prune import occlusion_select
from repro.graphs.hnsw import HNSWIndex, _PairReuse
from repro.graphs.storage import PAD
from tests.test_build_paths import _digest, _hub_data


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(21)
    return rng.normal(size=(500, 12)).astype(np.float32)


@pytest.fixture(scope="module")
def index(points):
    return HNSWIndex(points, m=8, ef_construction=48, seed=3).build()


class TestConstruction:
    def test_multiple_layers_exist(self, index):
        assert len(index._layers) >= 2

    def test_entry_point_on_top_layer(self, index):
        top = len(index._layers) - 1
        assert index._levels[index.entry_point] == top

    def test_layer_membership_nested(self, index):
        """Edges on layer l join vertices whose level reaches l."""
        levels = np.asarray(index._levels)
        for l, layer in enumerate(index._layers):
            linked = (layer != PAD).any(axis=1)
            assert (levels[linked] >= l).all()
            assert (levels[layer[layer != PAD]] >= l).all()
            # with more than one member, every member is linked
            if (levels >= l).sum() > 1:
                assert linked[levels >= l].all()

    def test_degree_bounds_respected(self, index):
        for l, layer in enumerate(index._layers):
            cap = index.m0 if l == 0 else index.m
            assert layer.shape == (len(index.data), cap)
            # rows are filled from the left, PAD after the last neighbor
            filled = layer != PAD
            assert (np.cumsum(~filled, axis=1)[filled] == 0).all()

    def test_invalid_m(self, points):
        with pytest.raises(ValueError):
            HNSWIndex(points, m=1)

    def test_search_before_build_raises(self, points):
        idx = HNSWIndex(points, m=4)
        with pytest.raises(RuntimeError):
            idx.search_batch(points[:1], 5)


def _truth(points, queries, k):
    d = ((points[None, :, :] - queries[:, None, :]) ** 2).sum(axis=2)
    return np.argsort(d, axis=1, kind="stable")[:, :k]


class TestSearch:
    def test_self_query_finds_self(self, index, points):
        res = index.search_batch(points[[0, 10, 99]], 1, ef=32)
        assert res.ids[:, 0].tolist() == [0, 10, 99]

    def test_recall_high_with_large_ef(self, index, points):
        res = index.search_batch(points[:25], 10, ef=80)
        assert batch_recall(res, _truth(points, points[:25], 10)) > 0.9

    def test_results_sorted_ascending(self, index, points):
        res = index.search_batch(points[3], 10, ef=40)
        ds = [d for d, _ in res[0]]
        assert len(ds) == 10 and ds == sorted(ds)

    def test_larger_ef_never_smaller_recall_on_average(self, index, points):
        truth = _truth(points, points[:20], 10)

        def recall(ef):
            return batch_recall(index.search_batch(points[:20], 10, ef=ef), truth)

        assert recall(100) >= recall(10) - 0.02

    def test_records_price_the_descent(self, index, points):
        """The priced counts include the upper layers' climb, each of its
        rows at the layer's own width, and charge it no queue or visited
        work: a climb has neither."""
        assert index.layer_degrees == (index.m0,) + (index.m,) * (len(index._layers) - 1)
        records = [SearchStats() for _ in index.layer_degrees]
        index.search_batch(points[:4], 10, ef=50, stats=records)
        upper = records[1:]
        assert all(r.rows_fetched >= 4 for r in upper)
        # every lane's seed, then at least one row of real neighbors
        assert all(r.distance_computations > 4 for r in upper)
        dim = points.shape[1]
        priced, seconds = price_records(
            zip(records, index.layer_degrees), dim, "l2", DEFAULT_CPU
        )
        base, base_seconds = price_records(
            [(records[0], index.m0)], dim, "l2", DEFAULT_CPU
        )
        climbed = sum(r.distance_computations for r in upper)
        assert priced.distance_calls == base.distance_calls + climbed
        assert priced.vector_reads == base.vector_reads + climbed
        assert priced.graph_reads == base.graph_reads + index.m * sum(
            r.rows_fetched for r in upper
        )
        assert (priced.queue_ops, priced.hash_ops, priced.hops) == (
            base.queue_ops, base.hash_ops, base.hops
        )
        assert seconds > base_seconds

    def test_stats_take_one_record_per_layer(self, index, points):
        with pytest.raises(ValueError, match="layers"):
            index.search_batch(points[:2], 10, stats=[SearchStats()])

    def test_invalid_k(self, index, points):
        with pytest.raises(ValueError):
            index.search_batch(points[:1], 0)


#: Digests of the ids the serial heap search that queries ran through
#: before the lockstep path returned, per ``(dataset, ef, k)``: sift's
#: whole ``ef`` lists, and every dataset's top-10.  Float32 near-ties in
#: the longer lists of glove200 and gist order differently under the two
#: scorers, so only their top-10 is pinned.
SERIAL_IDS = {
    ("sift", 10, 10): "14e3b8a38085a838",
    ("sift", 40, 40): "d7bb457bd8b43b1a",
    ("sift", 160, 160): "d0eaea8c366adabd",
    ("sift", 40, 10): "c627735a68af937f",
    ("sift", 160, 10): "17a3ffc0c371e96d",
    ("glove200", 10, 10): "0793142437128d35",
    ("glove200", 40, 10): "e35cc2a0900aaf5f",
    ("glove200", 160, 10): "c6fa9178ed072670",
    ("gist", 10, 10): "3ce1cb73130753b6",
    ("gist", 40, 10): "74c34e3825ed447d",
    ("gist", 160, 10): "465ab3125c3499c7",
}


@pytest.mark.parametrize("name", ["sift", "glove200", "gist"])
def test_ids_equal_the_serial_search(name):
    """The figure benches' HNSW (m 8, ef_construction 48, seed 1) at n = 600."""
    ds = make_dataset(name, n=600, num_queries=32, seed=0)
    index = HNSWIndex(ds.data, m=8, ef_construction=48, seed=1).build()
    for (dataset, ef, k), digest in SERIAL_IDS.items():
        if dataset == name:
            assert _digest(index.search_batch(ds.queries, k, ef=ef).ids) == digest


class TestExport:
    def test_base_layer_graph(self, index, points):
        g = index.base_layer_graph()
        g.validate()
        assert g.num_vertices == len(points)
        assert g.degree == index.m0
        assert g.entry_point == index.entry_point


def _select_indices(dists, pair, m, backfill=True):
    """Sequential occlusion selection, one row at a time (oracle).

    Algorithm 4 in index space over a full pairwise matrix (``dists``
    ascending, ``pair[i, j]`` the distance from candidate ``i`` to
    candidate ``j``), then, with ``backfill`` (HNSW; NSG has none), the
    nearest rejected candidates.  This is the loop
    :func:`~repro.graphs._prune.occlusion_select` runs in lockstep.
    """
    chosen = []
    for i in range(len(dists)):
        if len(chosen) >= m:
            break
        d = dists[i]
        if all(pair[i, j] >= d for j in chosen):
            chosen.append(i)
    if backfill and len(chosen) < m:  # backfill with nearest rejected candidates
        picked = set(chosen)
        for i in range(len(dists)):
            if len(chosen) >= m:
                break
            if i not in picked:
                chosen.append(i)
    return chosen


def _oracle(metric, data, ids, dists, m, backfill=True):
    out = np.full((len(ids), m), PAD, dtype=np.int64)
    for r, (row, d) in enumerate(zip(ids, dists)):
        row = row[row != PAD]
        vecs = data[row]
        pair = metric.batch_many(vecs, np.broadcast_to(vecs[None], (len(row),) + vecs.shape))
        keep = _select_indices(d[: len(row)], pair, m, backfill)
        out[r, : len(keep)] = row[keep]
    return out


def _grid_data(seed=0):
    """Small-integer vectors: ties in every distance, duplicate rows, one NaN row."""
    data = np.random.default_rng(seed).integers(0, 3, size=(80, 6)).astype(np.float32)
    data[5] = data[6]  # an exact duplicate, so zero distances occur
    data[7, 2] = np.nan
    return data


def _cases(metric, data, rows, width, seed=0):
    """``rows`` candidate lists (ascending, ties by id) of 0..width ids each."""
    rng = np.random.default_rng(seed)
    ids = np.full((rows, width), PAD, dtype=np.int64)
    dists = np.full((rows, width), np.inf)
    for r in range(rows):
        point = int(rng.integers(len(data)))
        others = np.delete(np.arange(len(data)), point)
        cands = rng.choice(others, size=int(rng.integers(0, width + 1)), replace=False)
        d = metric.batch(data[point], data[cands])
        order = np.lexsort((cands, d))
        ids[r, : len(cands)] = cands[order]
        dists[r, : len(cands)] = d[order]
    return ids, dists


class TestSelectNeighbors:
    """The lockstep kernel against the sequential rule, row by row."""

    @pytest.mark.parametrize("name", ["l2", "cosine", "ip"])
    @pytest.mark.parametrize("rows", [1, 512])
    def test_equals_sequential_oracle(self, name, rows):
        metric, data = get_metric(name), _grid_data()
        for m, backfill in itertools.product((2, 4, 8), (True, False)):
            ids, dists = _cases(metric, data, rows, width=24, seed=rows + m)
            got = occlusion_select(metric, data, ids, dists, m, backfill=backfill)
            want = _oracle(metric, data, ids, dists, m, backfill)
            np.testing.assert_array_equal(got, want)

    def test_fewer_candidates_than_m(self):
        # C < m for the whole batch, with empty and one-id rows among them
        metric, data = get_metric("l2"), _grid_data(1)
        ids, dists = _cases(metric, data, 64, width=3, seed=9)
        assert (ids == PAD).all(axis=1).any() and ((ids != PAD).sum(axis=1) == 1).any()
        offered = (ids != PAD).sum(axis=1)
        got = occlusion_select(metric, data, ids, dists, 8)
        np.testing.assert_array_equal(got, _oracle(metric, data, ids, dists, 8))
        # short rows are backfilled to their full candidate count
        assert ((got != PAD).sum(axis=1) == offered).all()
        got = occlusion_select(metric, data, ids, dists, 8, backfill=False)
        np.testing.assert_array_equal(got, _oracle(metric, data, ids, dists, 8, False))
        # without backfill a row keeps what survives the rule, its first
        # candidate always
        filled = (got != PAD).sum(axis=1)
        assert (filled <= offered).all() and (filled < offered).any()
        assert (filled[offered > 0] >= 1).all()

    def test_no_candidates(self):
        metric, data = get_metric("l2"), _grid_data()
        ids = np.empty((3, 0), dtype=np.int64)
        got = occlusion_select(metric, data, ids, np.empty((3, 0)), 4)
        assert got.shape == (3, 4) and (got == PAD).all()

    def test_nan_distances_rejected_like_the_oracle(self):
        metric, data = get_metric("l2"), _grid_data(2)
        ids = np.tile(np.arange(12) + 10, (32, 1))  # full lists, no NaN vector
        dists = np.sort(np.random.default_rng(3).random((32, 12)), axis=1)
        dists[0, 0] = np.nan  # nothing kept yet: kept, as all([]) is true
        dists[1, 3] = np.nan  # compared with kept neighbors: rejected
        dists[2, :] = np.nan
        got = occlusion_select(metric, data, ids, dists, 4)
        np.testing.assert_array_equal(got, _oracle(metric, data, ids, dists, 4))
        assert got[0, 0] == ids[0, 0]


def _by_owner_distance(metric, data, owners, rows):
    """Each row's ids and owner distances, ascending, ties by id (oracle input)."""
    d = np.stack([metric.batch(data[u], data[row]) for u, row in zip(owners, rows)])
    order = np.lexsort((rows, d))
    return np.take_along_axis(rows, order, axis=1), np.take_along_axis(d, order, axis=1)


class TestReselect:
    """Re-selection from the reused pair panel against the sequential rule.

    Cold: the first re-selection of an owner in a call scores its whole
    row.  Warm: the same owners again in the same call, with one more
    neighbor each, read the kept rows' pairs back from the reuse.
    """

    @pytest.mark.parametrize("name", ["l2", "cosine", "ip"])
    @pytest.mark.parametrize("max_deg", [4, 8])
    def test_cold_then_warm_equals_sequential_oracle(self, name, max_deg):
        metric, data = get_metric(name), _grid_data()
        index = HNSWIndex(data, m=4, metric=name)
        rng = np.random.default_rng(max_deg)
        owners = np.array([7, 5, 6, 0, 11, 30, 42, 79])  # 7 is the NaN row
        picks = [rng.permutation(np.delete(np.arange(len(data)), u)) for u in owners]
        rows = np.stack([p[: max_deg + 1] for p in picks])
        reuse = _PairReuse(metric, data, owners, max_deg)
        for wave in range(3):
            got = index._reselect(owners, rows, max_deg, reuse)
            ids, dists = _by_owner_distance(metric, data, owners, rows)
            np.testing.assert_array_equal(got, _oracle(metric, data, ids, dists, max_deg))
            assert reuse.scored.all()
            # the next wave: each kept row grows by a point it does not hold
            new = [next(v for v in p if v not in set(r)) for p, r in zip(picks, got)]
            rows = np.concatenate([got, np.array(new)[:, None]], axis=1)


def test_hub_rows_take_several_append_waves(monkeypatch):
    """The hub golden case re-selects one row more often than its cap in a generation."""
    counts = collections.Counter()
    caps = []  # max_deg of every (layer, generation) link so far
    link, reselect = HNSWIndex._link_generation, HNSWIndex._reselect

    def spy_link(self, vs, ids, dists, layer, max_deg):
        caps.append(max_deg)
        return link(self, vs, ids, dists, layer, max_deg)

    def spy_reselect(self, owners, *rest):
        counts.update((len(caps), int(u)) for u in owners)
        return reselect(self, owners, *rest)

    monkeypatch.setattr(HNSWIndex, "_link_generation", spy_link)
    monkeypatch.setattr(HNSWIndex, "_reselect", spy_reselect)
    HNSWIndex(_hub_data(), m=4, ef_construction=32, seed=2).build()
    (call, _), most = counts.most_common(1)[0]
    assert most > caps[call - 1]

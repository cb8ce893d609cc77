"""HNSW index tests."""

import collections

import numpy as np
import pytest

from repro.distances import OpCounter, get_metric
from repro.graphs.hnsw import HNSWIndex, _select_neighbors
from repro.graphs.storage import PAD
from tests.test_build_paths import _hub_data


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
            idx.search(points[0], 5)


class TestSearch:
    def test_self_query_finds_self(self, index, points):
        for v in (0, 10, 99):
            res = index.search(points[v], 1, ef=32)
            assert res[0][1] == v

    def test_recall_high_with_large_ef(self, index, points):
        hits = 0
        for q in range(25):
            d = ((points - points[q]) ** 2).sum(axis=1)
            truth = set(np.argsort(d, kind="stable")[:10].tolist())
            res = index.search(points[q], 10, ef=80)
            hits += len(truth & {v for _, v in res})
        assert hits / 250 > 0.9

    def test_results_sorted_ascending(self, index, points):
        res = index.search(points[3], 10, ef=40)
        ds = [d for d, _ in res]
        assert ds == sorted(ds)

    def test_larger_ef_never_smaller_recall_on_average(self, index, points):
        def recall(ef):
            hits = 0
            for q in range(20):
                d = ((points - points[q]) ** 2).sum(axis=1)
                truth = set(np.argsort(d, kind="stable")[:10].tolist())
                res = index.search(points[q], 10, ef=ef)
                hits += len(truth & {v for _, v in res})
            return hits / 200

        assert recall(100) >= recall(10) - 0.02

    def test_counter_records_work(self, index, points):
        c = OpCounter()
        index.search(points[0], 10, ef=50, counter=c)
        assert c.distance_calls > 10
        assert c.distance_flops > 0
        assert c.hops >= 1

    def test_invalid_k(self, index, points):
        with pytest.raises(ValueError):
            index.search(points[0], 0)


class TestExport:
    def test_base_layer_graph(self, index, points):
        g = index.base_layer_graph()
        g.validate()
        assert g.num_vertices == len(points)
        assert g.degree == index.m0
        assert g.entry_point == index.entry_point


def _select_indices(dists, pair, m):
    """Sequential HNSW neighbor selection, one row at a time (oracle).

    Algorithm 4 in index space over a full pairwise matrix (``dists``
    ascending, ``pair[i, j]`` the distance from candidate ``i`` to
    candidate ``j``), then backfill with the nearest rejected candidates.
    This is the loop :func:`_select_neighbors` runs in lockstep.
    """
    chosen = []
    for i in range(len(dists)):
        if len(chosen) >= m:
            break
        d = dists[i]
        if all(pair[i, j] >= d for j in chosen):
            chosen.append(i)
    if len(chosen) < m:  # backfill with nearest rejected candidates
        picked = set(chosen)
        for i in range(len(dists)):
            if len(chosen) >= m:
                break
            if i not in picked:
                chosen.append(i)
    return chosen


def _oracle(metric, data, ids, dists, m):
    out = np.full((len(ids), m), PAD, dtype=np.int64)
    for r, (row, d) in enumerate(zip(ids, dists)):
        row = row[row != PAD]
        vecs = data[row]
        pair = metric.batch_many(vecs, np.broadcast_to(vecs[None], (len(row),) + vecs.shape))
        keep = _select_indices(d[: len(row)], pair, m)
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
        for m in (2, 4, 8):
            ids, dists = _cases(metric, data, rows, width=24, seed=rows + m)
            got = _select_neighbors(metric, data, ids, dists, m)
            np.testing.assert_array_equal(got, _oracle(metric, data, ids, dists, m))

    def test_fewer_candidates_than_m(self):
        # C < m for the whole batch, with empty and one-id rows among them
        metric, data = get_metric("l2"), _grid_data(1)
        ids, dists = _cases(metric, data, 64, width=3, seed=9)
        assert (ids == PAD).all(axis=1).any() and ((ids != PAD).sum(axis=1) == 1).any()
        got = _select_neighbors(metric, data, ids, dists, 8)
        np.testing.assert_array_equal(got, _oracle(metric, data, ids, dists, 8))
        # short rows are backfilled to their full candidate count
        assert ((got != PAD).sum(axis=1) == (ids != PAD).sum(axis=1)).all()

    def test_no_candidates(self):
        metric, data = get_metric("l2"), _grid_data()
        ids = np.empty((3, 0), dtype=np.int64)
        got = _select_neighbors(metric, data, ids, np.empty((3, 0)), 4)
        assert got.shape == (3, 4) and (got == PAD).all()

    def test_nan_distances_rejected_like_the_oracle(self):
        metric, data = get_metric("l2"), _grid_data(2)
        ids = np.tile(np.arange(12) + 10, (32, 1))  # full lists, no NaN vector
        dists = np.sort(np.random.default_rng(3).random((32, 12)), axis=1)
        dists[0, 0] = np.nan  # nothing kept yet: kept, as all([]) is true
        dists[1, 3] = np.nan  # compared with kept neighbors: rejected
        dists[2, :] = np.nan
        got = _select_neighbors(metric, data, ids, dists, 4)
        np.testing.assert_array_equal(got, _oracle(metric, data, ids, dists, 4))
        assert got[0, 0] == ids[0, 0]


def test_hub_rows_take_several_append_waves(monkeypatch):
    """The hub golden case re-selects one row more often than its cap in a generation."""
    counts = collections.Counter()
    caps = []  # max_deg of every (layer, generation) link so far
    link, reselect = HNSWIndex._link_generation, HNSWIndex._reselect

    def spy_link(self, vs, ids, dists, layer, max_deg):
        caps.append(max_deg)
        return link(self, vs, ids, dists, layer, max_deg)

    def spy_reselect(self, owners, rows, max_deg):
        counts.update((len(caps), int(u)) for u in owners)
        return reselect(self, owners, rows, max_deg)

    monkeypatch.setattr(HNSWIndex, "_link_generation", spy_link)
    monkeypatch.setattr(HNSWIndex, "_reselect", spy_reselect)
    HNSWIndex(_hub_data(), m=4, ef_construction=32, seed=2).build()
    (call, _), most = counts.most_common(1)[0]
    assert most > caps[call - 1]

"""CAGRA builder tests: validity, connectivity, quality, cost metering.

The CAGRA-shaped builder is validated against the NSG it is meant to
outclass on build time: at equal max degree the detour-count reordering
plus reverse merge must match or beat NSG's search recall (measured
margin at this seed is ~0.04; the assertion is exact ``>=`` because the
whole pipeline is deterministic).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.song import SongSearcher
from repro.data import make_dataset
from repro.eval import batch_recall
from repro.graphs import build_cagra, build_nsg
from repro.graphs import cagra as cagra_module
from repro.graphs._repair import reachable_mask
from repro.graphs.bruteforce_knn import knn_neighbors
from repro.graphs.cagra import CagraBuilder
from repro.graphs.storage import PAD
from repro.simt.build_cost import BuildCostRecorder

N, DIM, NUM_QUERIES, K, DEGREE = 1000, 16, 100, 10, 16


@pytest.fixture(scope="module")
def cagra_data():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((N, DIM)).astype(np.float32)
    queries = rng.standard_normal((NUM_QUERIES, DIM)).astype(np.float32)
    dists = ((queries[:, None, :] - data[None, :, :]) ** 2).sum(axis=-1)
    ground_truth = np.argsort(dists, axis=1, kind="stable")[:, :K]
    return data, queries, ground_truth


@pytest.fixture(scope="module")
def cagra_graph(cagra_data):
    data, _, _ = cagra_data
    return build_cagra(data, degree=DEGREE, seed=0)


def _search_recall(graph, data, queries, ground_truth) -> float:
    config = SearchConfig(k=K, queue_size=64)
    results = SongSearcher(graph, data).search_batch(queries, config)
    return batch_recall(results, ground_truth)


class TestStructure:
    def test_adjacency_valid(self, cagra_graph):
        adj = cagra_graph.adjacency_array
        assert adj.shape == (N, DEGREE)
        real = adj[adj != PAD]
        assert real.min() >= 0 and real.max() < N
        # no self-loops anywhere
        rows = np.repeat(np.arange(N), DEGREE)
        assert not np.any(adj.ravel() == rows)

    def test_rows_deduplicated(self, cagra_graph):
        adj = cagra_graph.adjacency_array
        for row in adj:
            real = row[row != PAD]
            assert len(np.unique(real)) == len(real)

    def test_fully_reachable(self, cagra_graph):
        adj = cagra_graph.adjacency_array.astype(np.int64)
        assert reachable_mask(adj, cagra_graph.entry_point).all()


class TestQuality:
    def test_recall_at_least_nsg(self, cagra_data, cagra_graph):
        data, queries, gt = cagra_data
        nsg = build_nsg(data, degree=DEGREE, knn=DEGREE, search_len=48)
        cagra_recall = _search_recall(cagra_graph, data, queries, gt)
        nsg_recall = _search_recall(nsg, data, queries, gt)
        assert cagra_recall >= nsg_recall

    def test_recall_floor(self, cagra_data, cagra_graph):
        data, queries, gt = cagra_data
        assert _search_recall(cagra_graph, data, queries, gt) >= 0.95


class TestValidation:
    def test_degree_too_small(self, cagra_data):
        data, _, _ = cagra_data
        with pytest.raises(ValueError, match="degree"):
            CagraBuilder(data, degree=1)

    def test_intermediate_below_degree(self, cagra_data):
        data, _, _ = cagra_data
        with pytest.raises(ValueError, match="intermediate_degree"):
            CagraBuilder(data, degree=16, intermediate_degree=8)

    def test_intermediate_too_wide_for_the_rank_scratch(self, cagra_data):
        data, _, _ = cagra_data
        with pytest.raises(ValueError, match="intermediate_degree"):
            CagraBuilder(data, degree=16, intermediate_degree=2**15)

    def test_knn_table_shape_checked(self, cagra_data):
        data, _, _ = cagra_data
        bad = np.zeros((N, 3), dtype=np.int64)
        with pytest.raises(ValueError, match="knn_table"):
            CagraBuilder(data, degree=DEGREE, knn_table=bad).build()

    def test_dataset_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            build_cagra(np.zeros((8, 4), dtype=np.float32), degree=8)


class TestCostRecorder:
    def test_records_phases(self, cagra_data):
        data, _, _ = cagra_data
        rec = BuildCostRecorder()
        build_cagra(data, degree=DEGREE, cost=rec)
        assert len(rec.phases) > 0
        labels = {p.name for p in rec.phases}
        assert "reorder" in labels and "reverse-merge" in labels
        assert rec.device_seconds() > 0


class TestClusteredData:
    def test_disconnected_clusters_get_bridged(self):
        # two well-separated blobs: the kNN table alone is disconnected,
        # so the repair pass must bridge components
        rng = np.random.default_rng(3)
        a = rng.standard_normal((300, 8)).astype(np.float32)
        b = rng.standard_normal((300, 8)).astype(np.float32) + 80.0
        data = np.concatenate([a, b])
        graph = build_cagra(data, degree=8, seed=0)
        adj = graph.adjacency_array.astype(np.int64)
        assert reachable_mask(adj, graph.entry_point).all()


def _detour_counts(table) -> np.ndarray:
    """The builder's detour counts of a bootstrap table (no dataset needed)."""
    table = np.asarray(table, dtype=np.int64)
    n, k0 = table.shape
    builder = CagraBuilder(
        np.zeros((n, 1), dtype=np.float32), degree=k0, intermediate_degree=k0
    )
    return builder._detour_counts(table)


def _searchsorted_counts(table, upto=None) -> np.ndarray:
    """Oracle: the rank-lookup kernel the 2-hop walk replaced.

    For every ``(mid, target)`` pair of a row — ``i < j`` — it asks "what
    rank does ``target`` hold in ``mid``'s list" with one binary search
    over the globally sorted ``row * n + id`` keys.  ``upto`` counts the
    first rows only (the pair panels of a wide table are large).
    """
    table = np.asarray(table, dtype=np.int64)
    n, k0 = table.shape
    id_order = np.argsort(table, axis=1, kind="stable")
    ids_by_id = np.take_along_axis(table, id_order, axis=1)
    flat_sorted = (np.arange(n, dtype=np.int64)[:, None] * n + ids_by_id).ravel()
    flat_rank = id_order.ravel()
    tri_j = np.repeat(np.arange(k0), np.arange(k0))
    tri_i = np.concatenate([np.arange(j) for j in range(k0)]).astype(np.int64)
    ends = np.cumsum(np.arange(k0))
    starts = ends - np.arange(k0)
    rows = table[:upto]
    query = rows[:, tri_i] * n + rows[:, tri_j]
    pos = np.minimum(np.searchsorted(flat_sorted, query), flat_sorted.size - 1)
    cond = (flat_sorted[pos] == query) & (flat_rank[pos] < tri_j[None, :])
    padded = np.zeros((len(rows), len(tri_j) + 1), dtype=np.int64)
    np.cumsum(cond, axis=1, dtype=np.int64, out=padded[:, 1:])
    return padded[:, ends] - padded[:, starts]


def _definition_counts(table) -> np.ndarray:
    """Oracle: the definition, as a triple loop (small tables only).

    ``counts[u, j]`` = mids ``table[u, i]``, ``i < j``, whose own row
    holds ``table[u, j]`` at a rank below ``j``.
    """
    rows = np.asarray(table).tolist()
    counts = np.zeros((len(rows), len(rows[0])), dtype=np.int64)
    for u, row in enumerate(rows):
        for j, target in enumerate(row):
            for i in range(j):
                mid = rows[row[i]]
                if target in mid and mid.index(target) < j:
                    counts[u, j] += 1
    return counts


def _distinct_rows(n: int, k0: int, seed: int) -> np.ndarray:
    """A seeded ``(n, k0)`` table of distinct ids per row, not kNN-shaped."""
    rng = np.random.default_rng(seed)
    return rng.permuted(np.tile(np.arange(n), (n, 1)), axis=1)[:, :k0]


def _force_block_rows(monkeypatch, n: int, k0: int, rows: int) -> list:
    """Make a block of the walk ``rows`` source rows; returns seen heights.

    A block row costs its stripe of the int16 position scratch plus its
    id, position and hit panels (see ``_WALK_BYTES``); a few spare bytes
    show that the constant need not be a whole number of rows.
    """
    row_bytes = 2 * n + 11 * k0 * k0
    monkeypatch.setattr(cagra_module, "_WALK_BYTES", rows * row_bytes + row_bytes // 2)
    heights = []
    kernel = cagra_module._detour_walk

    def spy(table, rows, *rest):
        heights.append(len(rows))
        return kernel(table, rows, *rest)

    monkeypatch.setattr(cagra_module, "_detour_walk", spy)
    return heights


class TestDetourCounts:
    """The 2-hop walk counts exactly what the definition counts."""

    def test_small_tables_match_the_definition(self):
        # ... and so does the vectorised oracle the larger cases rest on
        for n, k0, seed in [(12, 5, 0), (9, 8, 1), (12, 11, 4), (7, 6, 3)]:
            table = _distinct_rows(n, k0, seed)
            want = _definition_counts(table)
            assert np.array_equal(_searchsorted_counts(table), want)
            assert np.array_equal(_detour_counts(table), want)

    @pytest.mark.parametrize("name", ["sift", "glove200", "gist"])
    def test_exact_knn_tables(self, name):
        ds = make_dataset(name, n=400, seed=1)
        table = knn_neighbors(ds.data, 24, ds.metric)
        counts = _detour_counts(table)
        assert counts.dtype == np.int64
        assert counts.any()
        assert np.array_equal(counts, _searchsorted_counts(table))

    @pytest.mark.parametrize("n,k0,seed", [(300, 16, 0), (97, 40, 1), (64, 63, 2)])
    def test_random_distinct_tables(self, n, k0, seed):
        table = _distinct_rows(n, k0, seed)
        assert np.array_equal(_detour_counts(table), _searchsorted_counts(table))

    def test_rows_holding_their_own_index(self):
        # self is an id like any other: never a repeat, sometimes a mid
        for n, k0, oracle in [(60, 9, _searchsorted_counts), (12, 5, _definition_counts)]:
            table = _distinct_rows(n, k0, 5)
            slot = np.random.default_rng(6).integers(k0, size=n)
            for u in range(n):
                if u not in table[u]:
                    table[u, slot[u]] = u
            assert all(u in table[u] for u in range(n))
            assert np.array_equal(_detour_counts(table), oracle(table))

    def test_every_other_point_is_a_neighbor(self):
        # n = k0 + 1: each row is a permutation of all the other ids
        n = 10
        rng = np.random.default_rng(7)
        table = np.array(
            [rng.permutation(np.delete(np.arange(n), u)) for u in range(n)]
        )
        counts = _detour_counts(table)
        assert np.array_equal(counts, _definition_counts(table))
        assert np.array_equal(counts, _searchsorted_counts(table))

    def test_two_wide_table(self):
        # k0 = 2: the only possible detour is (i, r, j) = (0, 0, 1)
        table = _distinct_rows(12, 2, 8)
        counts = _detour_counts(table)
        assert np.array_equal(counts, _definition_counts(table))
        assert not counts[:, 0].any() and counts[:, 1].max() <= 1

    @pytest.mark.parametrize("k0", [127, 128, 200])
    def test_wide_tables(self, k0):
        # either side of the int8 boundary a narrower rank dtype would have
        table = _distinct_rows(k0 + 30, k0, k0)
        assert np.array_equal(_detour_counts(table)[:40], _searchsorted_counts(table, 40))

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_block_height_changes_nothing(self, monkeypatch, rows):
        n, k0 = 50, 6  # 50 is a multiple of none of 3, 7
        table = _distinct_rows(n, k0, 9)
        want = _searchsorted_counts(table)
        heights = _force_block_rows(monkeypatch, n, k0, rows)
        assert np.array_equal(_detour_counts(table), want)
        assert max(heights) == rows and sum(heights) == n
        assert heights[-1] == (n % rows or rows)

    def test_scratch_is_unmarked_between_blocks(self, monkeypatch):
        # One-row blocks share one scratch stripe.  Row u = [u+1, u+2, u+3,
        # u+5] holds id u+5 at rank 3; row u+1 = [u+2, u+3, u+4, u+6] does
        # not hold it, but reaches it in two hops at (i, r) = (0, 2) through
        # its mid u+2 = [u+3, u+4, u+5, u+7].  A mark left behind by row
        # u's block would read as the detour (0, 2, 3) of row u+1.
        n, k0 = 12, 4
        table = np.array([[(u + s) % n for s in (1, 2, 3, 5)] for u in range(n)])
        # the same id at different ranks in rows of consecutive blocks
        assert table[0, 1] == table[1, 0] and table[0, 2] == table[1, 1]
        heights = _force_block_rows(monkeypatch, n, k0, 1)
        assert np.array_equal(_detour_counts(table), _definition_counts(table))
        assert heights == [1] * n

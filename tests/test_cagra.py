"""CAGRA builder tests: validity, connectivity, quality, cost metering.

The CAGRA-shaped builder is validated against the NSG it is meant to
outclass on build time: at equal max degree the detour-count reordering
plus reverse merge must match or beat NSG's search recall (measured
margin at this seed is ~0.04; the assertion is exact ``>=`` because the
whole pipeline is deterministic).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.song import SongSearcher
from repro.data import make_dataset
from repro.data.ground_truth import TILE_BYTES
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
    return build_cagra(data, degree=DEGREE)


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
        graph = build_cagra(data, degree=8)
        adj = graph.adjacency_array.astype(np.int64)
        assert reachable_mask(adj, graph.entry_point).all()


def _detour_counts(table) -> np.ndarray:
    """The builder's detour counts of a whole bootstrap table, as one tile."""
    table = np.asarray(table, dtype=np.int64)
    return cagra_module._detour_counts(table, 0, len(table))


def _reorder(table) -> np.ndarray:
    """The builder's reordered rows of a bootstrap table (no dataset needed)."""
    table = np.asarray(table, dtype=np.int64)
    n, k0 = table.shape
    builder = CagraBuilder(
        np.zeros((n, 1), dtype=np.float32), degree=k0, intermediate_degree=k0
    )
    return builder._reorder(table)


def _force_tile_rows(monkeypatch, rows: int, row_bytes: int) -> None:
    """Make a ``TILE_BYTES`` tile ``rows`` rows of ``row_bytes`` (and half
    a row to spare: the tile need not be a whole number of rows)."""
    monkeypatch.setattr(cagra_module, "TILE_BYTES", rows * row_bytes + row_bytes // 2)


def _spy(monkeypatch, name: str) -> list:
    """Record every call of ``cagra_module.<name>``: its arguments and a
    copy of its result (the caller may overwrite the result in place)."""
    calls = []
    kernel = getattr(cagra_module, name)

    def spy(*args):
        result = kernel(*args)
        calls.append((args, result.copy()))
        return result

    monkeypatch.setattr(cagra_module, name, spy)
    return calls


def _assert_blocks(heights, n: int, rows: int) -> None:
    """Blocks of ``rows`` rows cover ``[0, n)``, the last one short."""
    assert max(heights) == rows and sum(heights) == n
    assert heights[-1] == (n % rows or rows)


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


def _definition_rows(fwd_full, degree) -> np.ndarray:
    """Oracle: CAGRA's reverse-edge merge as a per-vertex loop.

    Row ``u`` takes its first ``ceil(degree/2)`` reordered forward edges,
    then the first ``floor(degree/2)`` of its reverse edges — the ``v``
    whose kept row ``fwd_full[v, :degree]`` holds ``u``, in (rank of
    ``u`` there, ``v``) order — then its remaining forward edges, each
    candidate once, until the row is full.
    """
    fwd = np.asarray(fwd_full).tolist()
    n = len(fwd)
    reverse = [[] for _ in range(n)]
    for v, row in enumerate(fwd):
        for rank, u in enumerate(row[:degree]):
            reverse[u].append((rank, v))
    out = np.empty((n, degree), dtype=np.int64)
    for u in range(n):
        d_fwd = degree - degree // 2
        sources = [v for _, v in sorted(reverse[u])][: degree // 2]
        row = []
        for c in fwd[u][:d_fwd] + sources + fwd[u][d_fwd:]:
            if c not in row and len(row) < degree:
                row.append(c)
        out[u] = row
    return out


def _with_hub(table, hub: int, seed: int) -> np.ndarray:
    """``table`` with ``hub`` in every row, at a seeded random rank."""
    table = np.array(table)
    slots = np.random.default_rng(seed).integers(table.shape[1], size=len(table))
    for u in range(len(table)):
        if hub not in table[u]:
            table[u, slots[u]] = hub
    return table


def _ring_table(n: int, k0: int, seed: int) -> np.ndarray:
    """A ``(n, k0)`` int64 table of distinct ids drawn near each row's own."""
    rng = np.random.default_rng(seed)
    offsets = rng.permuted(np.tile(np.arange(1, 2 * k0 + 1), (n, 1)), axis=1)[:, :k0]
    return (np.arange(n)[:, None] + offsets) % n


class TestReverseMerge:
    """The packed two-sort merge builds exactly the loop's rows."""

    @staticmethod
    def check(table, degree):
        table = np.ascontiguousarray(table, dtype=np.int64)
        got = cagra_module._merge_reverse_rows(table, degree)
        assert np.array_equal(got, _definition_rows(table, degree))

    @pytest.mark.parametrize(
        "n,k0,degree", [(40, 8, 5), (40, 8, 8), (40, 8, 2), (30, 12, 7), (9, 8, 8), (9, 8, 3)]
    )
    def test_random_distinct_tables(self, n, k0, degree):
        self.check(_distinct_rows(n, k0, n + k0 + degree), degree)

    @pytest.mark.parametrize("degree", [2, 5, 8])
    def test_a_hub_in_every_row(self, degree):
        # the hub's reverse list is every vertex, its own row included
        self.check(_with_hub(_distinct_rows(40, 8, 11), 3, 12), degree)

    @pytest.mark.parametrize("degree", [3, 6])
    def test_rows_holding_their_own_index(self, degree):
        table = _distinct_rows(30, 6, 13)
        slots = np.random.default_rng(14).integers(6, size=30)
        for u in range(30):
            if u not in table[u]:
                table[u, slots[u]] = u
        self.check(table, degree)

    @pytest.mark.parametrize("degree", [2, 5, 10])
    def test_every_other_point_is_a_neighbor(self, degree):
        # n = k0 + 1: every reverse candidate is also a forward one
        n = 11
        rng = np.random.default_rng(15)
        table = np.array([rng.permutation(np.delete(np.arange(n), u)) for u in range(n)])
        self.check(table, degree)

    def test_exact_knn_table(self):
        ds = make_dataset("sift", n=300, seed=2)
        table = knn_neighbors(ds.data, 32, ds.metric)
        builder = CagraBuilder(ds.data, degree=16)
        self.check(builder._reorder(table), 16)

    @pytest.mark.parametrize("rows,degree", [(1, 5), (3, 2), (7, 8)])
    def test_block_height_changes_nothing(self, monkeypatch, rows, degree):
        # 40 is a multiple of neither 3 nor 7; the hub's reverse list
        # holds a source in every block
        n, k0 = 40, 8
        table = _with_hub(_distinct_rows(n, k0, 19), 6, 20)
        _force_tile_rows(monkeypatch, rows, 17 * (degree + k0))
        calls = _spy(monkeypatch, "_merge_block")
        self.check(table, degree)
        _assert_blocks([len(args[0]) for args, _ in calls], n, rows)

    def test_peak_memory_is_a_few_tables(self):
        # n = 12000, k0 = 64, degree 32: beside its output and the sorted
        # reverse stream, the merge holds about one tile, not the 5x the
        # table the whole-array merge held (31.7 MB here)
        n, k0, degree = 12000, 64, 32
        table = _ring_table(n, k0, 16)
        tracemalloc.start()
        try:
            cagra_module._merge_reverse_rows(table, degree)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out_and_stream = 2 * n * degree * 8
        assert peak <= out_and_stream + 2 * TILE_BYTES


class TestReorder:
    """The tiled reorder sorts exactly as one whole-array row sort."""

    @staticmethod
    def whole_array(table, counts) -> np.ndarray:
        n, k0 = table.shape
        keys = (counts * k0 + np.arange(k0)) * n + table
        keys.sort(axis=1)
        return keys % n

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_tile_height_changes_nothing(self, monkeypatch, rows):
        # 50 is a multiple of neither 3 nor 7; the hub is a mid in every tile
        n, k0 = 50, 6
        table = _with_hub(_distinct_rows(n, k0, 17), 4, 18)
        counts = _definition_counts(table)
        _force_tile_rows(monkeypatch, rows, 8 * k0)
        calls = _spy(monkeypatch, "_detour_counts")
        assert np.array_equal(_reorder(table), self.whole_array(table, counts))
        assert np.array_equal(np.concatenate([c for _, c in calls]), counts)
        _assert_blocks([hi - lo for (_, lo, hi), _ in calls], n, rows)

    def test_tiles_and_walk_blocks_nest(self, monkeypatch):
        # walk blocks of 3 rows inside tiles of 7: each tile restarts its
        # walk, so the last block of a tile is short
        n, k0 = 50, 6
        table = _distinct_rows(n, k0, 21)
        want = self.whole_array(table, _searchsorted_counts(table))
        _force_tile_rows(monkeypatch, 7, 8 * k0)
        heights = _force_block_rows(monkeypatch, n, k0, 3)
        assert np.array_equal(_reorder(table), want)
        assert heights == [3, 3, 1] * 7 + [1]

    def test_exact_knn_table(self):
        ds = make_dataset("glove200", n=400, seed=3)
        table = knn_neighbors(ds.data, 24, ds.metric)
        want = self.whole_array(table, _searchsorted_counts(table))
        assert np.array_equal(_reorder(table), want)


class TestBuildMemory:
    def test_peak_past_the_bootstrap_is_a_tile_above_its_tables(self):
        # Given its table, the build holds the bootstrap's copy of it, the
        # reordered table, the adjacency and the merge's reverse stream,
        # plus about one tile, where the whole-array stages held 7.2x the
        # table (44.0 MB)
        n, k0, degree = 12000, 64, 32
        table = _ring_table(n, k0, 22)
        data = np.random.default_rng(23).standard_normal((n, 4)).astype(np.float32)
        builder = CagraBuilder(data, degree=degree, knn_table=table)
        tracemalloc.start()
        try:
            graph = builder.build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.adjacency_array.shape == (n, degree)
        tables = 2 * table.nbytes + 2 * n * degree * 8
        assert peak <= tables + 2 * TILE_BYTES


class TestCapacity:
    def test_points_past_the_packed_key_range_are_refused(self, monkeypatch):
        data = np.zeros((40, 2), dtype=np.float32)
        monkeypatch.setattr(cagra_module, "_MAX_POINTS", 39)
        with pytest.raises(ValueError, match="39 points"):
            CagraBuilder(data, degree=4)
        monkeypatch.setattr(cagra_module, "_MAX_POINTS", 40)
        CagraBuilder(data, degree=4)
        monkeypatch.undo()
        wide = np.broadcast_to(np.zeros((1, 2), dtype=np.float32), (2**26 + 1, 2))
        with pytest.raises(ValueError, match=f"{2**26} points"):
            CagraBuilder(wide, degree=2)

    def test_widths_past_the_packed_key_range_are_refused(self):
        # n**2 * (degree + k0) must stay within 2**63: at n = 2**26 that
        # allows P = 2048 and refuses anything wider, before any bootstrap.
        data = np.broadcast_to(np.zeros((1, 2), dtype=np.float32), (2**26, 2))
        CagraBuilder(data, degree=16, intermediate_degree=2048 - 16)
        with pytest.raises(ValueError, match="int64 keys"):
            CagraBuilder(data, degree=16, intermediate_degree=2048 - 15)
        with pytest.raises(ValueError, match="int64 keys"):
            CagraBuilder(data, degree=16, intermediate_degree=4096)

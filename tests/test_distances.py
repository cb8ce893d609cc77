"""Distance metric unit + property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.distances.metrics as metrics_module
from repro.distances import Metric, get_metric

finite_floats = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False, width=32
)


def vec(dim):
    return arrays(np.float64, (dim,), elements=finite_floats)


class TestSingle:
    def test_l2_known_value(self):
        u = np.array([0.0, 0.0])
        v = np.array([3.0, 4.0])
        assert get_metric("l2").single(u, v) == pytest.approx(25.0)

    def test_ip_is_negated_dot(self):
        u = np.array([1.0, 2.0])
        v = np.array([3.0, -1.0])
        assert get_metric("ip").single(u, v) == pytest.approx(-1.0)

    def test_cosine_parallel_vectors(self):
        u = np.array([1.0, 1.0])
        assert get_metric("cosine").single(u, 3 * u) == pytest.approx(-1.0)

    def test_cosine_orthogonal(self):
        cosine = get_metric("cosine")
        assert cosine.single(np.array([1.0, 0.0]), np.array([0.0, 5.0])) == pytest.approx(0.0)

    def test_cosine_zero_vector_is_zero(self):
        assert get_metric("cosine").single(np.zeros(3), np.ones(3)) == 0.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("manhattan")


class TestBatchConsistency:
    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    def test_batch_matches_single(self, metric, rng):
        q = rng.normal(size=8)
        pts = rng.normal(size=(20, 8))
        batch = get_metric(metric).batch(q, pts)
        for i in range(20):
            assert batch[i] == pytest.approx(
                get_metric(metric).single(q, pts[i]), rel=1e-6, abs=1e-9
            )

    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    def test_pairwise_matches_batch(self, metric, rng):
        qs = rng.normal(size=(5, 8))
        pts = rng.normal(size=(12, 8))
        pw = get_metric(metric).pairwise(qs, pts)
        for i in range(5):
            np.testing.assert_allclose(
                pw[i], get_metric(metric).batch(qs[i], pts), rtol=1e-6, atol=1e-8
            )

    def test_batch_rejects_1d_points(self):
        with pytest.raises(ValueError, match="2-d"):
            get_metric("l2").batch(np.ones(3), np.ones(3))


def _bits(values):
    assert values.dtype == np.float32
    return np.ascontiguousarray(values).view(np.uint32)


ROW_COUNT_CASES = [
    ("l2", False),
    ("ip", False),
    ("cosine", True),
    ("cosine", False),
    ("hamming", False),
]


class TestRowCountInvariance:
    """A ``(query, row)`` pair's value may not depend on how many other
    rows share its ``batch_many`` call: the lockstep engine scores a
    ragged ``(R, 1, d)`` survivor panel, the serial engine one query's
    candidates through ``batch``, and their results must agree bitwise."""

    B, C, DIM = 8, 28, 200  # B * C = 224 pairs

    def panel(self, metric_name, layout):
        """``(rows, queries, ids)``: ``rows(index)`` gathers dataset rows.

        ``"gathered"`` hands the metric fresh contiguous copies (what a
        fancy-indexed gather produces); ``"sliced"`` hands it every other
        column of a wider gather, so neither rows nor queries are
        contiguous.
        """
        rng = np.random.default_rng(20)
        if metric_name == "hamming":
            wide_data = rng.integers(0, 2**32, size=(300, 8), dtype=np.uint32)
            wide_queries = rng.integers(0, 2**32, size=(self.B, 8), dtype=np.uint32)
        else:
            wide_data = rng.standard_normal((300, 2 * self.DIM)).astype(np.float32)
            wide_queries = rng.standard_normal((self.B, 2 * self.DIM)).astype(np.float32)
        ids = rng.integers(0, 300, size=(self.B, self.C))
        if layout == "gathered":
            data = np.ascontiguousarray(wide_data[:, ::2])
            return (lambda index: data[index]), np.ascontiguousarray(wide_queries[:, ::2]), ids
        return (lambda index: wide_data[index][..., ::2]), wide_queries[:, ::2], ids

    @pytest.mark.parametrize("layout", ["gathered", "sliced"])
    @pytest.mark.parametrize("metric_name,cached_norms", ROW_COUNT_CASES)
    def test_value_is_independent_of_panel_shape(self, metric_name, cached_norms, layout):
        metric = get_metric(metric_name)
        rows, queries, ids = self.panel(metric_name, layout)
        assert rows(ids).flags["C_CONTIGUOUS"] == (layout == "gathered")
        norms = np.linalg.norm(rows(np.arange(300)), axis=1) if cached_norms else None

        def gathered_norms(index):
            return None if norms is None else norms[index]

        serial = np.stack(
            [
                metric.batch(queries[b], rows(ids[b]), gathered_norms(ids[b]))
                for b in range(self.B)
            ]
        )
        dense = metric.batch_many(queries, rows(ids), gathered_norms(ids))
        assert np.array_equal(_bits(dense), _bits(serial))

        lanes = np.repeat(np.arange(self.B), self.C)
        flat_ids = ids.reshape(-1)
        order = np.random.default_rng(21).permutation(len(flat_ids))
        for count in (1, 3, 17, 224):
            pick = np.sort(order[:count])
            lane_idx, row_ids = lanes[pick], flat_ids[pick]
            row_norms = gathered_norms(row_ids)
            ragged = metric.batch_many(
                queries[lane_idx],
                rows(row_ids)[:, None, :],
                None if row_norms is None else row_norms[:, None],
            )
            assert ragged.shape == (count, 1)
            assert np.array_equal(
                _bits(ragged[:, 0]), _bits(serial.reshape(-1)[pick])
            ), (metric_name, layout, count)

    @pytest.mark.parametrize("metric_name,cached_norms", ROW_COUNT_CASES)
    def test_zero_row_panel(self, metric_name, cached_norms):
        rows, queries, _ = self.panel(metric_name, "gathered")
        none = np.zeros(0, dtype=np.int64)
        norms = np.zeros((0, 1), dtype=np.float32) if cached_norms else None
        out = get_metric(metric_name).batch_many(
            queries[none], rows(none)[:, None, :], norms
        )
        assert out.shape == (0, 1)


class TestGatherMany:
    """``gather_many`` walks a flat ``(lane, vertex)`` list in tiles of
    ``PANEL_BYTES // row_bytes`` rows; wherever the tile boundaries fall,
    every value must stay bitwise what the serial ``Metric.batch`` gives
    that lane, and a list that fits one tile is one ``batch_many`` call."""

    B, N = 6, 40

    def case(self, metric_name, cached_norms):
        rng = np.random.default_rng(30)
        if metric_name == "hamming":
            data = rng.integers(0, 2**32, size=(self.N, 3), dtype=np.uint32)
            queries = rng.integers(0, 2**32, size=(self.B, 3), dtype=np.uint32)
        else:
            data = rng.standard_normal((self.N, 24)).astype(np.float32)
            queries = rng.standard_normal((self.B, 24)).astype(np.float32)
        norms = np.linalg.norm(data, axis=1) if cached_norms else None
        return get_metric(metric_name), queries, data, norms

    @staticmethod
    def count_calls(monkeypatch):
        """Panel shapes of every ``batch_many`` call from here on."""
        panels = []

        def batch_many(self, queries, points, norms=None, score=Metric.batch_many):
            panels.append(points.shape)
            return score(self, queries, points, norms)

        monkeypatch.setattr(Metric, "batch_many", batch_many)
        return panels

    @pytest.mark.parametrize("ordered", [True, False], ids=["sorted", "unsorted"])
    @pytest.mark.parametrize("tile", [1, 4, 7])
    @pytest.mark.parametrize("metric_name,cached_norms", ROW_COUNT_CASES)
    def test_bitwise_equal_to_serial_batch_at_every_tile_boundary(
        self, monkeypatch, metric_name, cached_norms, tile, ordered
    ):
        metric, queries, data, norms = self.case(metric_name, cached_norms)
        row_bytes = data.shape[1] * data.itemsize
        # A few spare bytes: a tile is whole rows, PANEL_BYTES need not be.
        monkeypatch.setattr(metrics_module, "PANEL_BYTES", tile * row_bytes + row_bytes // 2)
        panels = self.count_calls(monkeypatch)
        rng = np.random.default_rng(31)
        for total in (0, 1, tile - 1, tile, tile + 1, 3 * tile + 5):
            lanes = rng.integers(0, self.B, size=total)
            if ordered:
                lanes = np.sort(lanes)  # what np.nonzero yields
            ids = rng.integers(0, self.N, size=total)
            serial = np.array(
                [
                    metric.batch(
                        queries[lane],
                        data[vertex : vertex + 1],
                        None if norms is None else norms[vertex : vertex + 1],
                    )[0]
                    for lane, vertex in zip(lanes, ids)
                ],
                dtype=np.float32,
            )
            panels.clear()
            got = metric.gather_many(queries, lanes, data, ids, norms)
            assert got.shape == (total,)
            assert np.array_equal(_bits(got), _bits(serial)), (total, tile)
            assert len(panels) == max(1, -(-total // tile))
            assert sum(shape[0] for shape in panels) == total
            assert all(shape[0] <= tile and shape[1:] == (1, data.shape[1]) for shape in panels)
            # Balanced: never a full tile plus a sliver.
            sizes = [shape[0] for shape in panels]
            assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("metric_name,cached_norms", ROW_COUNT_CASES)
    def test_empty_list_is_one_call_on_an_empty_panel(
        self, monkeypatch, metric_name, cached_norms
    ):
        metric, queries, data, norms = self.case(metric_name, cached_norms)
        none = np.zeros(0, dtype=np.int64)
        panels = self.count_calls(monkeypatch)
        out = metric.gather_many(queries, none, data, none, norms)
        assert out.shape == (0,) and out.dtype == np.float32
        assert panels == [(0, 1, data.shape[1])]


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(u=vec(6), v=vec(6))
    def test_l2_symmetry(self, u, v):
        l2 = get_metric("l2")
        assert l2.single(u, v) == pytest.approx(l2.single(v, u))

    @settings(max_examples=50, deadline=None)
    @given(u=vec(6))
    def test_l2_identity(self, u):
        assert get_metric("l2").single(u, u) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(u=vec(6), v=vec(6))
    def test_l2_nonnegative(self, u, v):
        assert get_metric("l2").single(u, v) >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(u=vec(4), v=vec(4))
    def test_cosine_bounded(self, u, v):
        d = get_metric("cosine").single(u, v)
        assert -1.0 - 1e-9 <= d <= 1.0 + 1e-9


class TestMetricObject:
    def test_equality_and_hash(self):
        assert get_metric("l2") == get_metric("l2")
        assert get_metric("l2") is get_metric("l2")  # cached
        assert get_metric("l2") != get_metric("ip")
        assert hash(get_metric("ip")) == hash(get_metric("ip"))

    def test_flops_scale_with_dim(self):
        m = get_metric("l2")
        assert m.flops_per_distance(100) == 2 * m.flops_per_distance(50)

    def test_get_metric_passthrough(self):
        m = get_metric("cosine")
        assert get_metric(m) is m


"""Distance metric unit + property tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.distances import (
    OpCounter,
    batch_distance,
    get_metric,
    pairwise_distance,
    single_distance,
)

finite_floats = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False, width=32
)


def vec(dim):
    return arrays(np.float64, (dim,), elements=finite_floats)


class TestSingle:
    def test_l2_known_value(self):
        u = np.array([0.0, 0.0])
        v = np.array([3.0, 4.0])
        assert single_distance(u, v, "l2") == pytest.approx(25.0)

    def test_ip_is_negated_dot(self):
        u = np.array([1.0, 2.0])
        v = np.array([3.0, -1.0])
        assert single_distance(u, v, "ip") == pytest.approx(-1.0)

    def test_cosine_parallel_vectors(self):
        u = np.array([1.0, 1.0])
        assert single_distance(u, 3 * u, "cosine") == pytest.approx(-1.0)

    def test_cosine_orthogonal(self):
        assert single_distance(
            np.array([1.0, 0.0]), np.array([0.0, 5.0]), "cosine"
        ) == pytest.approx(0.0)

    def test_cosine_zero_vector_is_zero(self):
        assert single_distance(np.zeros(3), np.ones(3), "cosine") == 0.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("manhattan")


class TestBatchConsistency:
    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    def test_batch_matches_single(self, metric, rng):
        q = rng.normal(size=8)
        pts = rng.normal(size=(20, 8))
        batch = batch_distance(q, pts, metric)
        for i in range(20):
            assert batch[i] == pytest.approx(
                single_distance(q, pts[i], metric), rel=1e-6, abs=1e-9
            )

    @pytest.mark.parametrize("metric", ["l2", "ip", "cosine"])
    def test_pairwise_matches_batch(self, metric, rng):
        qs = rng.normal(size=(5, 8))
        pts = rng.normal(size=(12, 8))
        pw = pairwise_distance(qs, pts, metric)
        for i in range(5):
            np.testing.assert_allclose(
                pw[i], batch_distance(qs[i], pts, metric), rtol=1e-6, atol=1e-8
            )

    def test_batch_rejects_1d_points(self):
        with pytest.raises(ValueError, match="2-d"):
            batch_distance(np.ones(3), np.ones(3))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(u=vec(6), v=vec(6))
    def test_l2_symmetry(self, u, v):
        assert single_distance(u, v) == pytest.approx(single_distance(v, u))

    @settings(max_examples=50, deadline=None)
    @given(u=vec(6))
    def test_l2_identity(self, u):
        assert single_distance(u, u) == pytest.approx(0.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(u=vec(6), v=vec(6))
    def test_l2_nonnegative(self, u, v):
        assert single_distance(u, v) >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(u=vec(4), v=vec(4))
    def test_cosine_bounded(self, u, v):
        d = single_distance(u, v, "cosine")
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


class TestCountedDistance:
    """``repro.distances.counted``: the :class:`OpCounter` tally."""

    def test_counter_reset_and_merge(self):
        a, b = OpCounter(), OpCounter()
        a.distance_calls = 3
        b.distance_calls = 4
        b.hops = 2
        a.merge(b)
        assert a.distance_calls == 7
        assert a.hops == 2
        a.reset()
        assert a.distance_calls == 0
        assert a.snapshot()["hops"] == 0

"""1-bit random projection and Hamming metric tests."""

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.song import SongSearcher
from repro.distances import get_metric
from repro.graphs.storage import FixedDegreeGraph
from repro.hashing.random_projection import SignRandomProjection

hamming = get_metric("hamming")


@pytest.fixture(scope="module")
def rp():
    return SignRandomProjection(32, num_bits=128, seed=0)


class TestProjection:
    def test_output_shape(self, rp):
        rng = np.random.default_rng(0)
        sigs = rp.transform(rng.normal(size=(10, 32)))
        assert sigs.shape == (10, 4)
        assert sigs.dtype == np.uint32

    def test_bits_multiple_of_32_required(self):
        with pytest.raises(ValueError):
            SignRandomProjection(8, num_bits=33)
        with pytest.raises(ValueError):
            SignRandomProjection(8, num_bits=0)

    def test_distribution_validated(self):
        with pytest.raises(ValueError):
            SignRandomProjection(8, 32, distribution="uniform")

    def test_dim_mismatch_rejected(self, rp):
        with pytest.raises(ValueError):
            rp.transform(np.zeros((2, 16)))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 32))
        a = SignRandomProjection(32, 64, seed=9).transform(x)
        b = SignRandomProjection(32, 64, seed=9).transform(x)
        np.testing.assert_array_equal(a, b)

    def test_identical_vectors_zero_hamming(self, rp):
        rng = np.random.default_rng(2)
        x = rng.normal(size=32)
        sigs = rp.transform(np.vstack([x, x]))
        assert hamming.single(sigs[0], sigs[1]) == 0

    def test_opposite_vectors_max_hamming(self, rp):
        rng = np.random.default_rng(3)
        x = rng.normal(size=32)
        sigs = rp.transform(np.vstack([x, -x]))
        assert hamming.single(sigs[0], sigs[1]) == 128

    def test_collision_probability_estimator(self):
        """Normalized Hamming ≈ θ/π within a few percentage points."""
        rng = np.random.default_rng(4)
        rp = SignRandomProjection(24, num_bits=2048, seed=5)
        for _ in range(5):
            u, v = rng.normal(size=24), rng.normal(size=24)
            sigs = rp.transform(np.vstack([u, v]))
            observed = hamming.single(sigs[0], sigs[1]) / 2048
            expected = 1.0 - rp.collision_probability(u, v)
            assert observed == pytest.approx(expected, abs=0.05)

    def test_cauchy_variant_works(self):
        rp = SignRandomProjection(16, 64, distribution="cauchy", seed=0)
        sigs = rp.transform(np.random.default_rng(0).normal(size=(4, 16)))
        assert sigs.shape == (4, 2)

    def test_memory_table_iv(self):
        """Table IV check: 128-bit codes are 4 bytes/point → huge shrink."""
        rp = SignRandomProjection(784, num_bits=128)
        hashed = rp.memory_bytes(8_090_000)
        original = 8_090_000 * 784 * 4
        assert original / hashed > 190  # paper: "more than 190x smaller"


class TestHamming:
    def test_single_known_value(self):
        a = np.array([0b1011], dtype=np.uint32)
        b = np.array([0b0001], dtype=np.uint32)
        assert hamming.single(a, b) == 2

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        sigs = rng.integers(0, 2**32, size=(20, 4), dtype=np.uint32)
        q = sigs[0]
        batch = hamming.batch(q, sigs)
        assert batch.dtype == np.float32
        for i in range(20):
            assert batch[i] == hamming.single(q, sigs[i])

    def test_metric_cost_and_self_distance(self):
        rng = np.random.default_rng(6)
        sigs = rng.integers(0, 2**32, size=(10, 2), dtype=np.uint32)
        # XOR + popcount + add per packed word.
        assert hamming.flops_per_distance(sigs.shape[1]) == 6
        assert hamming.batch(sigs[0], sigs)[0] == 0

    def test_packed_data_must_be_uint32(self):
        graph = FixedDegreeGraph.from_adjacency([[1], [0], [0], [0]])
        with pytest.raises(ValueError, match="uint32"):
            SongSearcher(graph, np.zeros((4, 2), dtype=np.int32))
        searcher = SongSearcher(graph, np.zeros((4, 2), dtype=np.uint32))
        config = SearchConfig(k=1, queue_size=2, metric="hamming")
        with pytest.raises(ValueError, match="uint32"):
            searcher.search(np.zeros(2, dtype=np.uint64), config)

    @pytest.mark.parametrize(
        "evaluator", ["pairwise", "pair_many", "point_norms", "point_sq_norms"]
    )
    def test_construction_evaluators_refuse_signatures(self, evaluator):
        """They used to fall through to their cosine branch."""
        sigs = np.arange(12, dtype=np.uint32).reshape(6, 2)
        args = (sigs,) if evaluator.startswith("point") else (sigs, sigs)
        with pytest.raises(ValueError, match="hamming"):
            getattr(hamming, evaluator)(*args)

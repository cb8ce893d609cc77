"""Product quantizer tests."""

import numpy as np
import pytest

from repro.baselines.pq import ProductQuantizer


def reconstruction_error(pq, data):
    """Mean squared distance from each row to its decoded code."""
    return float(((data - pq.decode(pq.encode(data))) ** 2).sum(axis=1).mean())


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(13)
    return rng.normal(size=(400, 16))


@pytest.fixture(scope="module")
def pq(data):
    return ProductQuantizer(16, m=4, ksub=32, seed=0).train(data)


class TestCodec:
    def test_code_shape_and_dtype(self, pq, data):
        codes = pq.encode(data[:10])
        assert codes.shape == (10, 4)
        assert codes.dtype == np.uint8

    def test_decode_reduces_error_vs_mean(self, pq, data):
        """PQ reconstruction should beat the trivial all-mean codec."""
        err = reconstruction_error(pq, data)
        mean_err = float(((data - data.mean(0)) ** 2).sum(axis=1).mean())
        assert err < mean_err

    def test_error_shrinks_with_more_centroids(self, data):
        small = ProductQuantizer(16, m=4, ksub=4, seed=0).train(data)
        large = ProductQuantizer(16, m=4, ksub=64, seed=0).train(data)
        assert reconstruction_error(large, data) < reconstruction_error(small, data)

    def test_error_shrinks_with_more_subspaces(self, data):
        few = ProductQuantizer(16, m=2, ksub=16, seed=0).train(data)
        many = ProductQuantizer(16, m=8, ksub=16, seed=0).train(data)
        assert reconstruction_error(many, data) < reconstruction_error(few, data)

    def test_dim_must_divide(self):
        with pytest.raises(ValueError):
            ProductQuantizer(10, m=4)

    def test_ksub_range(self):
        with pytest.raises(ValueError):
            ProductQuantizer(16, m=4, ksub=0)
        with pytest.raises(ValueError):
            ProductQuantizer(16, m=4, ksub=257)

    def test_untrained_raises(self, data):
        pq = ProductQuantizer(16, m=4)
        with pytest.raises(RuntimeError):
            pq.encode(data)


class TestADC:
    def test_adc_matches_decoded_distance(self, pq, data):
        """ADC(q, code) must equal the exact distance to the decoded vector."""
        q = data[0]
        codes = pq.encode(data[1:50])
        table = pq.adc_table(q)
        adc = pq.adc_distances(table, codes)
        decoded = pq.decode(codes)
        exact = ((decoded - q) ** 2).sum(axis=1)
        np.testing.assert_allclose(adc, exact, rtol=1e-8)

    def test_adc_approximates_true_distance(self, pq, data):
        q = data[0]
        codes = pq.encode(data[1:200])
        adc = pq.adc_distances(pq.adc_table(q), codes)
        true = ((data[1:200] - q) ** 2).sum(axis=1)
        # rank correlation: ADC should mostly preserve the ordering
        adc_rank = np.argsort(np.argsort(adc))
        true_rank = np.argsort(np.argsort(true))
        corr = np.corrcoef(adc_rank, true_rank)[0, 1]
        assert corr > 0.8

    def test_memory_accounting(self, pq):
        assert pq.memory_bytes() == 4 * 32 * 4 * 4

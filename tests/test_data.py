"""Dataset generators and ground-truth tests."""

import numpy as np
import pytest

from repro.data import DATASET_SPECS, Dataset, ground_truth, make_dataset
from repro.data.synthetic import clustered_dataset, diffuse_dataset


class TestGenerators:
    def test_all_specs_instantiate(self):
        for name in DATASET_SPECS:
            ds = make_dataset(name, n=200, num_queries=10)
            assert ds.num_data == 200
            assert ds.num_queries == 10
            assert ds.dim == DATASET_SPECS[name].dim
            assert ds.data.dtype == np.float32

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_dataset("imagenet")

    def test_deterministic_given_seed(self):
        a = make_dataset("sift", n=100, num_queries=5, seed=3)
        b = make_dataset("sift", n=100, num_queries=5, seed=3)
        np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(a.queries, b.queries)

    def test_seed_changes_data(self):
        a = make_dataset("sift", n=100, num_queries=5, seed=1)
        b = make_dataset("sift", n=100, num_queries=5, seed=2)
        assert not np.array_equal(a.data, b.data)

    def test_dimension_ordering_matches_table1(self):
        dims = {n: s.dim for n, s in DATASET_SPECS.items()}
        assert dims["sift"] < dims["glove200"] < dims["nytimes"]
        assert dims["gist"] == max(dims.values())

    def test_clustered_is_more_skewed_than_diffuse(self):
        """Mean distance to the nearest neighbor should be far smaller,
        relative to global spread, in the clustered regime."""

        def nn_ratio(ds):
            d = ds.data[:300]
            pd = ((d[:, None, :] - d[None, :, :]) ** 2).sum(-1)
            np.fill_diagonal(pd, np.inf)
            return np.sqrt(pd.min(1)).mean() / np.sqrt(
                ((d - d.mean(0)) ** 2).sum(1)
            ).mean()

        clustered = clustered_dataset(300, 32, 10, seed=0)
        diffuse = diffuse_dataset(300, 32, 10, seed=0)
        assert nn_ratio(clustered) < nn_ratio(diffuse)


class TestDatasetContainer:
    def test_validation(self):
        with pytest.raises(ValueError):
            Dataset("x", np.zeros((3, 4), np.float32), np.zeros((2, 5), np.float32))
        with pytest.raises(ValueError):
            Dataset("x", np.zeros(3, np.float32), np.zeros((2, 3), np.float32))

    def test_ground_truth_cached(self):
        ds = make_dataset("sift", n=150, num_queries=5)
        gt1 = ds.ground_truth(5)
        gt2 = ds.ground_truth(5)
        assert gt1 is gt2
        assert gt1.shape == (5, 5)

    def test_size_bytes(self):
        ds = make_dataset("sift", n=100, num_queries=5)
        assert ds.size_bytes() == 100 * 128 * 4


class TestGroundTruth:
    def test_matches_argsort(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(100, 8)).astype(np.float32)
        queries = rng.normal(size=(7, 8)).astype(np.float32)
        gt = ground_truth(data, queries, 5)
        for i, q in enumerate(queries):
            d = ((data - q) ** 2).sum(axis=1)
            np.testing.assert_array_equal(gt[i], np.argsort(d, kind="stable")[:5])

    def test_blocked_consistency(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(60, 4)).astype(np.float32)
        queries = rng.normal(size=(11, 4)).astype(np.float32)
        for k in (1, 3, len(data) - 1, len(data)):
            a = ground_truth(data, queries, k, block=2)
            b = ground_truth(data, queries, k, block=100)
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(a, ground_truth(data, queries, k))

    def test_validation(self):
        data = np.zeros((5, 2), np.float32)
        q = np.zeros((1, 2), np.float32)
        with pytest.raises(ValueError):
            ground_truth(data, q, 0)
        with pytest.raises(ValueError):
            ground_truth(data, q, 6)

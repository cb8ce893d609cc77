"""Dataset generators and ground-truth tests."""

import hashlib
import sys

import numpy as np
import pytest

from repro.data import DATASET_SPECS, Dataset, ground_truth, make_dataset
from repro.data.synthetic import clustered_dataset, diffuse_dataset

#: The ``repro.data.ground_truth`` module (the package re-exports the
#: function under the same name).
gt_module = sys.modules["repro.data.ground_truth"]

#: sha256[:16] of the ``data`` and ``queries`` bytes of every spec at
#: n = 3000, 40 queries, captured while the generators still drew all their
#: rows at once.  3000 rows span several row chunks of every spec.
GENERATOR_DIGESTS = {
    ("nytimes", 3): ("21c1bfe10e6a35a7", "3082eb685e9e5cf1"),
    ("sift", 3): ("0acc78724e9b7a89", "fb9cf4d6f4a0cb82"),
    ("glove200", 3): ("549315cae29ad2f2", "36870e91a30a941a"),
    ("uqv", 3): ("e834b97b01e52089", "32ea347037acb1d0"),
    ("gist", 3): ("14cd5a2f9a70daac", "07093d243dee1c31"),
    ("mnist8m", 3): ("501accb715ffb313", "a10cd4bd682b6cf4"),
    ("nytimes", 2_147_483_647): ("5021b3b6c3a858cc", "4dffdf10f9e455a2"),
    ("sift", 2_147_483_647): ("7ee95fa7f4660cc6", "38092d71c919c20b"),
    ("glove200", 2_147_483_647): ("3b8d92fae843101b", "86c73f25f3b0750e"),
    ("uqv", 2_147_483_647): ("e0c387aae24db9ad", "4c51d72db9caa434"),
    ("gist", 2_147_483_647): ("365388e9bf95e0a4", "94cb43fc07e608d6"),
    ("mnist8m", 2_147_483_647): ("d507dba6dfd966dd", "033d5e07841e154c"),
}


def _digests(ds):
    return tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in (ds.data, ds.queries))


@pytest.mark.parametrize("name,seed", sorted(GENERATOR_DIGESTS))
def test_generator_bytes_are_pinned(name, seed):
    ds = make_dataset(name, n=3000, num_queries=40, seed=seed)
    assert _digests(ds) == GENERATOR_DIGESTS[name, seed]


@pytest.mark.parametrize("chunk_bytes", [1, 5000])
def test_generator_bytes_do_not_depend_on_the_chunk(monkeypatch, chunk_bytes):
    """One-row chunks, and chunks of a few rows, draw the pinned bytes."""
    monkeypatch.setattr(gt_module, "CHUNK_BYTES", chunk_bytes)
    for name in DATASET_SPECS:
        ds = make_dataset(name, n=3000, num_queries=40, seed=3)
        assert _digests(ds) == GENERATOR_DIGESTS[name, 3], name


class TestGenerators:
    def test_all_specs_instantiate(self):
        for name in DATASET_SPECS:
            ds = make_dataset(name, n=200, num_queries=10)
            assert ds.num_data == 200
            assert ds.num_queries == 10
            assert ds.dim == DATASET_SPECS[name].dim
            assert ds.data.dtype == np.float32

    def test_none_picks_the_default_sizes(self):
        spec = DATASET_SPECS["sift"]
        ds = make_dataset("sift")
        assert (ds.num_data, ds.num_queries) == (spec.default_n, spec.default_queries)

    def test_zero_points_are_refused(self):
        # a zero used to fall back to the default size without a word
        with pytest.raises(ValueError, match="^n must be at least 1, got 0"):
            make_dataset("sift", n=0, num_queries=0)

    def test_negative_points_are_refused(self):
        with pytest.raises(ValueError, match="^n must be at least 1, got -5"):
            make_dataset("sift", n=-5, num_queries=3)

    def test_negative_queries_are_refused(self):
        with pytest.raises(ValueError, match="^num_queries must be at least 0, got -1"):
            make_dataset("sift", n=50, num_queries=-1)

    def test_zero_queries_are_legal(self):
        for name in DATASET_SPECS:
            ds = make_dataset(name, n=50, num_queries=0)
            assert ds.num_data == 50
            assert ds.queries.shape == (0, DATASET_SPECS[name].dim)
        assert ds.ground_truth(5).shape == (0, 5)

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

    def test_selection_blocks_do_not_move_ids(self, monkeypatch):
        # small integers tie at every distance: each row's cut among the
        # ties may not depend on how many rows share its argpartition
        data = np.random.default_rng(10).integers(0, 3, size=(300, 4)).astype(np.float32)
        want = ground_truth(data, data, 7, exclude_self=True)
        for panel in (1, 5 * 300 * 8):
            monkeypatch.setattr(gt_module, "PANEL_BYTES", panel)
            assert np.array_equal(ground_truth(data, data, 7, exclude_self=True), want)

    @pytest.mark.parametrize("default_block", [False, True])
    @pytest.mark.parametrize("bands", [0, 1, 2])
    def test_no_band_is_one_row(self, monkeypatch, bands, default_block):
        """numpy scores a one-row product by GEMV, whose bits differ from
        the GEMM's: q = 1, block + 1 and 2 * block + 1 queries leave no
        band one row long, with or without ``exclude_self``."""
        data = np.random.default_rng(12).normal(size=(40, 6)).astype(np.float32)
        block = 8
        if default_block:  # the height worked out from TILE_BYTES
            monkeypatch.setattr(gt_module, "TILE_BYTES", 4 * len(data) * block)
        q = bands * block + 1
        want = ground_truth(data, data[:q], 5, block=100)
        seen = []
        select = gt_module.band_top_k

        def spy(m, band, points, norms, k, own=None):
            seen.append(len(band))
            return select(m, band, points, norms, k, own)

        monkeypatch.setattr(gt_module, "band_top_k", spy)
        for exclude_self in (False, True):
            got = ground_truth(
                data, data[:q], 5, block=None if default_block else block,
                exclude_self=exclude_self,
            )
            if not exclude_self:
                np.testing.assert_array_equal(got, want)
        assert min(seen) >= 2 and sum(seen) == 2 * max(q, 2)

    def test_row_alone_equals_its_band(self):
        """A query scored alone gets the ids it gets inside a band.  While
        a lone query was scored by numpy's one-row GEMV, three of these
        rows' top-100 came out in another order under OpenBLAS."""
        ds = make_dataset("mnist8m", n=3000, num_queries=65, seed=0)
        queries = ds.queries.astype(np.float32)
        whole = ground_truth(ds.data, queries, 100, ds.metric)
        for i in range(len(queries)):
            alone = ground_truth(ds.data, queries[i : i + 1], 100, ds.metric)
            np.testing.assert_array_equal(alone[0], whole[i])

    def test_validation(self):
        data = np.zeros((5, 2), np.float32)
        q = np.zeros((1, 2), np.float32)
        with pytest.raises(ValueError):
            ground_truth(data, q, 0)
        with pytest.raises(ValueError):
            ground_truth(data, q, 6)

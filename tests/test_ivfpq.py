"""IVFPQ (Faiss stand-in) tests."""

import numpy as np
import pytest

from repro.baselines.flat import FlatIndex
from repro.baselines.ivfpq import IVFPQIndex
from repro.eval.recall import batch_recall


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(17)
    return rng.normal(size=(800, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def index(data):
    idx = IVFPQIndex(16, nlist=16, m=4, ksub=32, seed=0).train(data)
    idx.add(data)
    return idx


class TestLifecycle:
    def test_add_before_train_raises(self, data):
        idx = IVFPQIndex(16, nlist=8)
        with pytest.raises(RuntimeError):
            idx.add(data)

    def test_search_empty_raises(self, data):
        idx = IVFPQIndex(16, nlist=8).train(data)
        with pytest.raises(RuntimeError):
            idx.search(data[0], 5)

    def test_ntotal(self, index, data):
        assert index.ntotal == len(data)

    def test_all_ids_stored_once(self, index, data):
        ids = np.concatenate(index.lists)
        assert sorted(ids.tolist()) == list(range(len(data)))

    def test_invalid_nlist(self):
        with pytest.raises(ValueError):
            IVFPQIndex(16, nlist=0)

    def test_incremental_add(self, data):
        idx = IVFPQIndex(16, nlist=8, m=4, ksub=16, seed=0).train(data)
        idx.add(data[:100])
        idx.add(data[100:250])
        assert idx.ntotal == 250
        ids = np.concatenate(idx.lists)
        assert sorted(ids.tolist()) == list(range(250))


class TestSearchQuality:
    def test_full_probe_high_recall(self, index, data):
        """Probing all lists leaves only PQ quantization error."""
        flat = FlatIndex(data)
        hits = total = 0
        for q in data[:30]:
            truth = {v for _, v in flat.search(q, 10)}
            got = {v for _, v in index.search(q, 10, nprobe=index.nlist)}
            hits += len(truth & got)
            total += 10
        assert hits / total > 0.5

    def test_recall_monotone_in_nprobe(self, index, data):
        flat = FlatIndex(data)
        gt = np.array([[v for _, v in flat.search(q, 10)] for q in data[:30]])

        def recall(nprobe):
            res = [index.search(q, 10, nprobe=nprobe) for q in data[:30]]
            return batch_recall(res, gt)

        r1, r4, r16 = recall(1), recall(4), recall(16)
        assert r1 <= r4 + 0.02
        assert r4 <= r16 + 0.02

    def test_results_sorted(self, index, data):
        res = index.search(data[0], 10, nprobe=4)
        ds = [d for d, _ in res]
        assert ds == sorted(ds)

    def test_k_validation(self, index, data):
        with pytest.raises(ValueError):
            index.search(data[0], 0)

    def test_nprobe_clamped(self, index, data):
        res = index.search(data[0], 5, nprobe=10_000)
        assert len(res) == 5


class TestGpuSearch:
    def test_gpu_results_match_functional(self, index, data):
        results, timing = index.gpu_search_batch(data[:5], 10, nprobe=4)
        for q, res in zip(data[:5], results):
            assert res == index.search(q, 10, nprobe=4)
        assert timing.kernel_seconds > 0

    def test_more_probes_cost_more_time(self, index, data):
        _, t1 = index.gpu_search_batch(data[:20], 10, nprobe=1)
        _, t16 = index.gpu_search_batch(data[:20], 10, nprobe=16)
        assert t16.kernel_seconds > t1.kernel_seconds

    def test_memory_accounting(self, index, data):
        mem = index.memory_bytes()
        assert mem > 0
        # codes are 4 bytes/vector here + ids 4 bytes + overheads
        assert mem < data.nbytes  # compressed below raw data


class TestFlat:
    def test_flat_exact(self, data):
        flat = FlatIndex(data)
        q = data[5]
        res = flat.search(q, 3)
        assert res[0] == (0.0, 5)
        d = ((data - q) ** 2).sum(axis=1)
        expect = np.argsort(d, kind="stable")[:3]
        assert [v for _, v in res] == expect.tolist()

    def test_flat_k_clamped(self, data):
        flat = FlatIndex(data[:4])
        assert len(flat.search(data[0], 100)) == 4

    def test_flat_k_validation(self, data):
        with pytest.raises(ValueError):
            FlatIndex(data).search(data[0], 0)

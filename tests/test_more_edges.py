"""Additional edge-case coverage for training and sweep paths."""

import numpy as np

from repro.baselines.pq import ProductQuantizer
from repro.baselines.ivfpq import IVFPQIndex
from repro.core.config import SearchConfig
from repro.core.gpu_kernel import GpuSongIndex
from repro.data.datasets import Dataset
from repro.eval.sweep import sweep_gpu_song
from repro.graphs.nsw import build_nsw


class TestSmallTrainingSets:
    def test_pq_with_fewer_points_than_ksub(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(10, 8))
        pq = ProductQuantizer(8, m=2, ksub=32, seed=0).train(data)
        codes = pq.encode(data)
        assert codes.shape == (10, 2)
        # reconstruction must still be sane
        recon_err = ((data - pq.decode(pq.encode(data))) ** 2).sum(axis=1).mean()
        assert recon_err < ((data - data.mean(0)) ** 2).sum(axis=1).mean() + 1e-9

    def test_ivfpq_nlist_clamped_to_data(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(20, 8))
        idx = IVFPQIndex(8, nlist=64, m=2, ksub=8, seed=0).train(data)
        assert idx.nlist == 20
        idx.add(data)
        assert len(idx.search(data[0], 3, nprobe=20)) == 3


class TestSweepOverrides:
    def test_ground_truth_override_used(self, small_dataset, small_graph):
        """Passing explicit ground truth skips the dataset cache — needed
        for tiled (saturated) query batches."""
        idx = GpuSongIndex(small_graph, small_dataset.data)
        tiled = Dataset(
            name="t",
            data=small_dataset.data,
            queries=np.tile(small_dataset.queries, (2, 1)),
        )
        gt = np.tile(small_dataset.ground_truth(10), (2, 1))
        pts = sweep_gpu_song(tiled, idx, [20], k=10, ground_truth=gt)
        assert 0 < pts[0].recall <= 1

    def test_sweep_config_passthrough(self, small_dataset, small_graph):
        idx = GpuSongIndex(small_graph, small_dataset.data)
        cfg = SearchConfig(k=10, queue_size=20, probe_steps=2)
        pts = sweep_gpu_song(small_dataset, idx, [20, 40], k=10, config=cfg)
        assert len(pts) == 2


class TestNSWEdges:
    def test_single_point(self):
        data = np.zeros((1, 4), dtype=np.float32)
        g = build_nsw(data, m=2, ef_construction=4)
        assert g.num_vertices == 1
        assert len(g.neighbors(0)) == 0

    def test_m_larger_than_dataset(self):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(5, 4)).astype(np.float32)
        g = build_nsw(data, m=8, ef_construction=8)
        g.validate()
        # with 5 points everyone can connect to everyone else
        assert all(len(g.neighbors(v)) <= 4 for v in range(5))

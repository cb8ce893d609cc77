"""IR heap-push and cosine kernel tests (maintenance stage in the ISA)."""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simt import isa
from repro.simt.kernels import cosine_kernel, run_heap_push
from repro.simt.simulator import WarpSimulator


class TestUnary:
    def _run(self, op, value):
        sim = WarpSimulator(
            [isa.Mov(dst="x", src=value), isa.Unary(op=op, dst="r", a="x")],
            global_mem=np.zeros(8),
        )
        sim.run()
        return sim.register("r")[0]

    def test_sqrt(self):
        assert self._run("sqrt", 16.0) == 4.0

    def test_rsqrt_zero_safe(self):
        assert self._run("rsqrt", 0.0) == 0.0
        assert self._run("rsqrt", 4.0) == 0.5

    def test_abs_neg_floor(self):
        assert self._run("abs", -3.0) == 3.0
        assert self._run("neg", 3.0) == -3.0
        assert self._run("floor", 2.7) == 2.0

    def test_unknown(self):
        with pytest.raises(ValueError):
            self._run("exp", 1.0)


class TestIRHeapPush:
    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False, width=32),
            min_size=1,
            max_size=30,
        )
    )
    def test_min_matches_heapq(self, values):
        cap = 32
        dists = np.zeros(cap)
        ids = np.zeros(cap)
        size = 0
        ref = []
        for j, d in enumerate(values):
            d = float(np.float32(d))
            new_d, new_i, size, _ = run_heap_push(dists, ids, size, d, j, cap)
            dists[:size] = new_d
            ids[:size] = new_i
            heapq.heappush(ref, d)
            assert dists[0] == pytest.approx(ref[0], rel=1e-6)

    def test_heap_property_holds(self):
        cap = 16
        dists = np.zeros(cap)
        ids = np.zeros(cap)
        size = 0
        for j, d in enumerate([9.0, 3.0, 7.0, 1.0, 5.0, 2.0]):
            new_d, new_i, size, _ = run_heap_push(dists, ids, size, d, j, cap)
            dists[:size] = new_d
            ids[:size] = new_i
        for i in range(1, size):
            assert dists[(i - 1) // 2] <= dists[i]

    def test_ids_track_distances(self):
        cap = 8
        dists = np.zeros(cap)
        ids = np.zeros(cap)
        size = 0
        entries = [(5.0, 100), (1.0, 200), (3.0, 300)]
        for d, vid in entries:
            new_d, new_i, size, _ = run_heap_push(dists, ids, size, d, vid, cap)
            dists[:size] = new_d
            ids[:size] = new_i
        assert ids[0] == 200  # id of the minimum distance

    def test_cycles_grow_with_sift_depth(self):
        """Pushing a new minimum sifts to the root: deeper heap, more work
        — the log-factor the analytic queue-op pricing assumes."""
        cap = 64

        def cycles_for(n):
            dists = np.zeros(cap)
            ids = np.zeros(cap)
            size = 0
            for j in range(n):  # descending pushes force full sifts
                new_d, new_i, size, stats = run_heap_push(
                    dists, ids, size, float(n - j), j, cap
                )
                dists[:size] = new_d
                ids[:size] = new_i
            return stats.cycles

        assert cycles_for(31) > cycles_for(3)

    def test_full_heap_push_is_a_noop(self):
        """The capacity guard: a push against a full heap writes nothing
        (unguarded, it wrote one word past the heap's allocation)."""
        dists = np.sort(np.linspace(0.5, 3.0, 8))
        ids = np.arange(8, dtype=np.float64)
        out_d, out_i, new_size, _ = run_heap_push(
            dists, ids, size=8, new_dist=0.25, new_id=99, capacity=8
        )
        assert new_size == 8
        np.testing.assert_array_equal(out_d, dists)
        assert 99 not in out_i

    def test_non_full_push_still_works(self):
        dists = np.sort(np.linspace(0.5, 3.0, 5))
        ids = np.arange(5, dtype=np.float64)
        out_d, out_i, new_size, _ = run_heap_push(
            dists, ids, size=5, new_dist=0.25, new_id=99, capacity=8
        )
        assert new_size == 6
        assert out_d[0] == pytest.approx(0.25)
        assert out_i[0] == 99


class TestCosineKernel:
    def test_matches_numpy(self):
        rng = np.random.default_rng(8)
        q, v = rng.normal(size=70), rng.normal(size=70)
        shared = np.zeros(96)
        shared[:70] = q
        g = np.zeros(96)
        g[:70] = v
        sim = WarpSimulator(cosine_kernel(70), global_mem=g, shared_mem=shared)
        sim.set_register("query_base", 0.0)
        sim.set_register("vec_base", 0.0)
        sim.run()
        expected = -(q @ v) / np.sqrt((q @ q) * (v @ v))
        assert sim.register("acc")[0] == pytest.approx(expected, rel=1e-9)

    def test_orthogonal_is_zero(self):
        q = np.zeros(32)
        q[0] = 1.0
        v = np.zeros(32)
        v[1] = 1.0
        shared = np.zeros(32)
        shared[:] = q
        sim = WarpSimulator(cosine_kernel(32), global_mem=v.copy(), shared_mem=shared)
        sim.set_register("query_base", 0.0)
        sim.set_register("vec_base", 0.0)
        sim.run()
        assert sim.register("acc")[0] == pytest.approx(0.0, abs=1e-12)

"""Unit tests for the serving building blocks: metrics, batching, admission."""

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    BatchObservation,
    default_tiers,
)
from repro.serve.batcher import BatchPolicy, BatchSizeController
from repro.serve.loadgen import poisson_arrivals
from repro.serve.metrics import LatencyHistogram, ServeMetrics


class TestLatencyHistogram:
    def test_percentiles_within_bucket_error(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(mean=-7.0, sigma=1.0, size=5000)
        hist = LatencyHistogram()
        hist.observe_many(samples)
        for p in (50, 90, 99):
            exact = float(np.percentile(samples, p))
            approx = hist.percentile(p)
            # bucket ratio is 2**0.25 (~19%); allow one full bucket
            assert abs(approx - exact) / exact < 0.2

    def test_exact_aggregates(self):
        hist = LatencyHistogram()
        hist.observe(0.5)
        hist.observe_many(np.array([0.1, 0.2]))
        assert hist.count == 3
        assert hist.total == pytest.approx(0.8)
        assert hist.min == pytest.approx(0.1)
        assert hist.max == pytest.approx(0.5)
        assert hist.mean == pytest.approx(0.8 / 3)

    def test_percentile_clamped_to_observed_range(self):
        hist = LatencyHistogram()
        hist.observe(0.003)
        assert hist.percentile(50) == pytest.approx(0.003)
        assert hist.percentile(99) == pytest.approx(0.003)

    def test_rejects_bad_input(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.observe(-1.0)
        with pytest.raises(ValueError):
            hist.percentile(0.0)
        assert hist.percentile(99) == 0.0  # empty histogram

    def test_to_dict_is_json_shaped(self):
        hist = LatencyHistogram()
        hist.observe_many(np.array([1e-4, 2e-4, 3e-4]))
        d = hist.to_dict()
        assert d["count"] == 3
        assert set(d) == {
            "count", "mean_s", "min_s", "max_s", "p50_s", "p90_s", "p99_s"
        }


class TestServeMetrics:
    def test_counter_flow(self):
        m = ServeMetrics()
        m.on_arrival(0)
        m.on_admit()
        m.on_batch(1, 0)
        m.on_complete(0, 0.001, 0.002, recall=0.9)
        m.on_arrival(5)
        m.on_shed("queue_full")
        assert m.counters["arrived"] == 2
        assert m.counters["completed"] == 1
        assert m.shed_rate() == pytest.approx(0.5)
        assert m.shed_reasons == {"queue_full": 1}

    def test_recall_by_tier(self):
        m = ServeMetrics()
        m.on_complete(0, 0.0, 0.0, recall=1.0)
        m.on_complete(0, 0.0, 0.0, recall=0.8)
        m.on_complete(2, 0.0, 0.0, recall=0.5)
        assert m.recall_by_tier() == {0: pytest.approx(0.9), 2: pytest.approx(0.5)}
        assert m.overall_recall() == pytest.approx((1.0 + 0.8 + 0.5) / 3)
        assert m.counters["degraded"] == 1

    def test_to_dict_deterministic(self):
        def build():
            m = ServeMetrics()
            m.on_arrival(3)
            m.on_batch(4, 1)
            m.on_complete(1, 0.001, 0.004, recall=0.7)
            return m.to_dict()

        assert build() == build()
        d = build()
        assert d["batch_size"]["distribution"] == {"4": 1}
        assert d["tiers"] == {"1": 1}


class TestDefaultTiers:
    def test_halving_down_to_k(self):
        tiers = default_tiers(SearchConfig(k=10, queue_size=80), num_tiers=5)
        assert [t.queue_size for t in tiers] == [80, 40, 20, 10]
        assert all(t.k == 10 for t in tiers)

    def test_single_tier_when_base_is_minimal(self):
        tiers = default_tiers(SearchConfig(k=10, queue_size=10))
        assert [t.queue_size for t in tiers] == [10]


class TestAdmissionController:
    def make(self, policy="degrade", **kw):
        cfg = AdmissionConfig(policy=policy, slo_p99_s=0.01, max_queue=4, **kw)
        return AdmissionController(cfg, default_tiers(SearchConfig(k=5, queue_size=40)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdmissionConfig(policy="nope")
        with pytest.raises(ValueError):
            AdmissionConfig(max_queue=0)
        with pytest.raises(ValueError):
            AdmissionConfig(slo_p99_s=0.0)
        with pytest.raises(ValueError):
            AdmissionConfig(recover_fraction=0.0)

    def test_tier_degrades_under_estimated_overload(self):
        ctl = self.make()
        # a slow batch with a deep residual queue: estimate >> SLO
        ctl.observe_batch(BatchObservation(8, 0.02, queue_depth_after=50, tier=0))
        assert ctl.tier == 1
        assert ctl.current_config().queue_size == 20

    def test_tier_recovers_after_cooldown(self):
        ctl = self.make(cooldown_batches=2)
        ctl.observe_batch(BatchObservation(8, 0.02, queue_depth_after=50, tier=0))
        assert ctl.tier == 1
        for _ in range(2):
            ctl.observe_batch(BatchObservation(8, 1e-5, queue_depth_after=0, tier=1))
        # EWMA needs a few calm batches to decay below recover_fraction
        for _ in range(10):
            if ctl.tier == 0:
                break
            ctl.observe_batch(BatchObservation(8, 1e-5, queue_depth_after=0, tier=1))
        assert ctl.tier == 0

    def test_recovery_requires_consecutive_calm(self):
        ctl = self.make(cooldown_batches=3)
        ctl.tier = 1
        ctl.observe_batch(BatchObservation(8, 1e-6, queue_depth_after=0, tier=1))
        ctl.observe_batch(BatchObservation(8, 1e-6, queue_depth_after=0, tier=1))
        assert ctl.tier == 1  # two calm < cooldown of three
        ctl.observe_batch(BatchObservation(8, 1e-6, queue_depth_after=0, tier=1))
        assert ctl.tier == 0

    def test_reject_policy_never_degrades(self):
        ctl = self.make(policy="reject")
        ctl.observe_batch(BatchObservation(8, 0.5, queue_depth_after=500, tier=0))
        assert ctl.tier == 0

    def test_shed_deadline_default(self):
        assert self.make().shed_deadline_s() == pytest.approx(0.02)
        assert self.make(policy="reject").shed_deadline_s() is None
        assert self.make(shed_deadline_s=0.5).shed_deadline_s() == pytest.approx(0.5)

    def test_estimate_before_observation_is_zero(self):
        assert self.make().estimated_latency_s(100) == 0.0


class TestBatchSizeController:
    def make(self, mode="adaptive", **kw):
        return BatchSizeController(
            BatchPolicy(mode=mode, batch_size=8, max_batch=64, **kw), slo_p99_s=0.01
        )

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(mode="nope")
        with pytest.raises(ValueError):
            BatchPolicy(batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(min_batch=16, batch_size=8)
        with pytest.raises(ValueError):
            BatchPolicy(service_slo_fraction=1.5)

    def test_grows_under_backlog(self):
        ctl = self.make()
        ctl.observe(8, service_seconds=1e-4, queue_depth_after=100)
        assert ctl.target == 16
        ctl.observe(16, service_seconds=1e-4, queue_depth_after=100)
        assert ctl.target == 32

    def test_growth_capped(self):
        ctl = self.make()
        for _ in range(10):
            ctl.observe(ctl.target, 1e-4, queue_depth_after=1000)
        assert ctl.target == 64

    def test_shrinks_when_service_eats_budget(self):
        ctl = self.make()
        # budget = 0.5 * 10ms = 5ms; 20ms service forces a shrink
        ctl.observe(8, service_seconds=0.02, queue_depth_after=100)
        assert ctl.target == 6

    def test_decays_when_idle(self):
        ctl = self.make()
        ctl.observe(8, service_seconds=1e-5, queue_depth_after=0)
        assert ctl.target == 7

    def test_fixed_mode_never_moves(self):
        ctl = self.make(mode="fixed")
        ctl.observe(8, 0.02, 100)
        ctl.observe(8, 1e-6, 0)
        assert ctl.target == 8


class TestPoissonArrivals:
    def test_seeded_and_increasing(self):
        a = poisson_arrivals(1000.0, 500, seed=7)
        b = poisson_arrivals(1000.0, 500, seed=7)
        np.testing.assert_array_equal(a, b)
        assert (np.diff(a) > 0).all()

    def test_rate_roughly_honored(self):
        a = poisson_arrivals(2000.0, 4000, seed=0)
        achieved = len(a) / a[-1]
        assert achieved == pytest.approx(2000.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10)
        with pytest.raises(ValueError):
            poisson_arrivals(100.0, 0)

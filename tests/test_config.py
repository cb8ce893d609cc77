"""SearchConfig validation and optimization-level bundles."""

import pytest

from repro.core.config import OptimizationLevel, SearchConfig
from repro.structures.visited import VisitedBackend


class TestValidation:
    def test_defaults_valid(self):
        cfg = SearchConfig()
        assert cfg.k == 10
        assert cfg.queue_size >= cfg.k

    def test_k_positive(self):
        with pytest.raises(ValueError):
            SearchConfig(k=0)

    def test_queue_at_least_k(self):
        with pytest.raises(ValueError):
            SearchConfig(k=20, queue_size=10)

    def test_multi_query_whitelist(self):
        with pytest.raises(ValueError):
            SearchConfig(multi_query=3)
        SearchConfig(multi_query=4)  # ok

    def test_probe_steps_positive(self):
        with pytest.raises(ValueError):
            SearchConfig(probe_steps=0)

    def test_visited_deletion_needs_deletable_backend(self):
        with pytest.raises(ValueError, match="deletable"):
            SearchConfig(
                visited_backend=VisitedBackend.BLOOM, visited_deletion=True
            )

    def test_bloom_fp_rate_range(self):
        with pytest.raises(ValueError):
            SearchConfig(bloom_fp_rate=0.0)


class TestCapacityHeuristic:
    def test_deletion_bound_is_2k(self):
        cfg = SearchConfig(
            k=10, queue_size=50, visited_deletion=True, selected_insertion=True
        )
        cap = cfg.effective_visited_capacity(degree=16)
        assert cap == 2 * 50 + 16

    def test_no_deletion_much_larger(self):
        small = SearchConfig(k=10, queue_size=50, visited_deletion=True,
                             selected_insertion=True)
        big = SearchConfig(k=10, queue_size=50)
        assert big.effective_visited_capacity(16) > small.effective_visited_capacity(16)

    def test_explicit_capacity_wins(self):
        cfg = SearchConfig(visited_capacity=777)
        assert cfg.effective_visited_capacity(16) == 777


class TestLevels:
    def test_all_levels_construct(self):
        for level in OptimizationLevel:
            cfg = SearchConfig.from_level(level, k=5, queue_size=20)
            assert cfg.k == 5

    def test_sel_del_level_flags(self):
        cfg = SearchConfig.from_level(OptimizationLevel.SELECTED_AND_DELETION)
        assert cfg.selected_insertion
        assert cfg.visited_deletion
        assert cfg.visited_backend == VisitedBackend.HASH_TABLE

    def test_bloom_level_backend(self):
        cfg = SearchConfig.from_level(OptimizationLevel.BLOOM)
        assert cfg.visited_backend == VisitedBackend.BLOOM
        assert not cfg.visited_deletion

    def test_with_options_copy(self):
        a = SearchConfig(k=10, queue_size=40)
        b = a.with_options(queue_size=100)
        assert a.queue_size == 40
        assert b.queue_size == 100
        assert b.k == 10

"""Cuckoo filter tests: deletion support and probabilistic semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.cuckoo import CuckooFilter

keys = st.integers(min_value=0, max_value=10**7)


class TestBasics:
    def test_insert_contains_delete(self):
        f = CuckooFilter(64)
        assert f.insert(10)
        assert f.contains(10)
        assert f.delete(10)
        assert not f.contains(10)

    def test_delete_absent_returns_false(self):
        f = CuckooFilter(64)
        assert not f.delete(123)

    def test_duplicate_insert_reports_present(self):
        f = CuckooFilter(64)
        assert f.insert(7)
        assert not f.insert(7)
        assert len(f) == 1

    def test_negative_key_rejected(self):
        f = CuckooFilter(8)
        for op in (f.insert, f.contains, f.delete):
            with pytest.raises(ValueError):
                op(-5)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CuckooFilter(0)
        with pytest.raises(ValueError):
            CuckooFilter(8, fingerprint_bits=2)
        with pytest.raises(ValueError):
            CuckooFilter(8, bucket_size=0)

    def test_overflow_raises_when_grossly_overfilled(self):
        f = CuckooFilter(8, max_kicks=50)
        with pytest.raises(OverflowError):
            for i in range(10_000):
                f.insert(i * 7919)

    def test_memory_accounting(self):
        f = CuckooFilter(100, fingerprint_bits=12, bucket_size=4)
        expected_bits = f.num_buckets * 4 * 12
        assert f.memory_bytes() == (expected_bits + 7) // 8


class TestNoFalseNegatives:
    def test_stored_keys_always_found(self):
        f = CuckooFilter(1000)
        ks = [i * 31 + 1 for i in range(800)]
        for k in ks:
            f.insert(k)
        for k in ks:
            assert f.contains(k), "cuckoo filter lost a stored key"

    def test_deletion_only_affects_target(self):
        f = CuckooFilter(500)
        ks = list(range(0, 4000, 10))
        for k in ks:
            f.insert(k)
        for k in ks[::4]:
            f.delete(k)
        survivors = [k for i, k in enumerate(ks) if i % 4 != 0]
        for k in survivors:
            assert f.contains(k)

    def test_false_positive_rate_small(self):
        f = CuckooFilter(2000, fingerprint_bits=12)
        for i in range(1500):
            f.insert(i)
        fp = sum(f.contains(k) for k in range(100_000, 120_000)) / 20_000
        assert fp < 0.05


class TestAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["add", "del"]), st.integers(0, 500)),
            max_size=200,
        )
    )
    def test_membership_superset_of_oracle(self, ops):
        """The filter may report extras (FPs) but never misses a member."""
        f = CuckooFilter(1024)
        oracle = set()
        for op, k in ops:
            if op == "add":
                if k not in oracle:
                    f.insert(k)
                    oracle.add(k)
            else:
                if k in oracle:
                    f.delete(k)
                    oracle.discard(k)
        for k in oracle:
            assert f.contains(k)

"""Open-addressing hash set tests (including backward-shift deletion)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures.hash_table import OpenAddressingSet

keys = st.integers(min_value=0, max_value=10**7)


class TestBasics:
    def test_insert_contains(self):
        s = OpenAddressingSet(16)
        assert s.insert(5)
        assert s.contains(5)
        assert not s.contains(6)

    def test_double_insert_returns_false(self):
        s = OpenAddressingSet(16)
        assert s.insert(5)
        assert not s.insert(5)
        assert len(s) == 1

    def test_delete(self):
        s = OpenAddressingSet(16)
        s.insert(5)
        assert s.delete(5)
        assert not s.contains(5)
        assert not s.delete(5)
        assert len(s) == 0

    def test_negative_key_rejected(self):
        s = OpenAddressingSet(4)
        for op in (s.insert, s.contains, s.delete):
            with pytest.raises(ValueError):
                op(-1)

    def test_overflow_raises(self):
        s = OpenAddressingSet(4)
        for i in range(4):
            s.insert(i)
        with pytest.raises(OverflowError):
            s.insert(99)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            OpenAddressingSet(0)

    def test_memory_is_power_of_two_words(self):
        s = OpenAddressingSet(100)
        assert s.memory_bytes() % 4 == 0
        n = s.memory_bytes() // 4
        assert n & (n - 1) == 0  # power of two slots


class TestCollisionChains:
    def test_colliding_keys_all_found(self):
        # Many keys hashing near each other via small table.
        s = OpenAddressingSet(32)
        ks = [i * 64 for i in range(20)]  # likely collisions after masking
        for k in ks:
            s.insert(k)
        for k in ks:
            assert s.contains(k)

    def test_delete_middle_of_chain_keeps_rest_findable(self):
        s = OpenAddressingSet(32)
        ks = [i * 64 for i in range(16)]
        for k in ks:
            s.insert(k)
        for victim in ks[::2]:
            assert s.delete(victim)
        for k in ks[1::2]:
            assert s.contains(k), f"lost key {k} after chain deletion"
        for k in ks[::2]:
            assert not s.contains(k)


class TestAgainstPythonSet:
    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.tuples(st.sampled_from(["add", "del", "has"]), keys), max_size=300))
    def test_random_op_sequence(self, ops):
        s = OpenAddressingSet(512)
        oracle = set()
        for op, k in ops:
            if op == "add" and len(oracle) < 512:
                assert s.insert(k) == (k not in oracle)
                oracle.add(k)
            elif op == "del":
                assert s.delete(k) == (k in oracle)
                oracle.discard(k)
            elif op == "has":
                assert s.contains(k) == (k in oracle)
        assert len(s) == len(oracle)
        assert all(s.contains(k) for k in oracle)

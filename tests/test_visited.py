"""VisitedSet facade tests: backend routing, deletion rules, auto-grow."""

import pytest

from repro.structures.visited import VisitedBackend, VisitedSet


class TestBackendSelection:
    @pytest.mark.parametrize(
        "backend", [b for b in VisitedBackend]
    )
    def test_insert_contains_roundtrip(self, backend):
        v = VisitedSet(backend=backend, capacity=128)
        assert v.insert(17)
        assert v.contains(17)

    def test_deletion_support_matrix(self):
        assert VisitedBackend.HASH_TABLE.supports_deletion()
        assert VisitedBackend.CUCKOO.supports_deletion()
        assert VisitedBackend.PYSET.supports_deletion()
        assert not VisitedBackend.BLOOM.supports_deletion()

    def test_bloom_delete_raises(self):
        v = VisitedSet(backend=VisitedBackend.BLOOM, capacity=64)
        v.insert(1)
        with pytest.raises(NotImplementedError):
            v.delete(1)

    def test_hash_delete_works(self):
        v = VisitedSet(backend=VisitedBackend.HASH_TABLE, capacity=64)
        v.insert(1)
        assert v.delete(1)
        assert not v.contains(1)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            VisitedSet(backend="magic")


class TestOpsAccounting:
    def test_ops_counted(self):
        v = VisitedSet(capacity=64)
        v.insert(1)
        v.contains(1)
        v.contains(2)
        v.delete(1)
        assert v.ops == 4


class TestAutoGrow:
    def test_hash_table_grows_past_capacity(self):
        v = VisitedSet(backend=VisitedBackend.HASH_TABLE, capacity=4)
        for i in range(50):
            v.insert(i)
        assert len(v) == 50
        assert v.grow_events >= 1
        for i in range(50):
            assert v.contains(i)

    def test_grow_disabled_raises(self):
        v = VisitedSet(
            backend=VisitedBackend.HASH_TABLE, capacity=4, auto_grow=False
        )
        with pytest.raises(OverflowError):
            for i in range(50):
                v.insert(i)

    def test_grow_preserves_deletions(self):
        v = VisitedSet(backend=VisitedBackend.HASH_TABLE, capacity=4)
        for i in range(10):
            v.insert(i)
        v.delete(3)
        for i in range(10, 40):
            v.insert(i)
        assert not v.contains(3)
        assert v.contains(9)


class TestMemoryOrdering:
    def test_bloom_smaller_than_hash_table(self):
        """The paper's 3x memory claim: Bloom beats the hash table."""
        cap = 1000
        bloom = VisitedSet(backend=VisitedBackend.BLOOM, capacity=cap)
        table = VisitedSet(backend=VisitedBackend.HASH_TABLE, capacity=cap)
        assert bloom.memory_bytes() * 3 <= table.memory_bytes()

    def test_cuckoo_smaller_than_hash_table(self):
        cap = 1000
        cuckoo = VisitedSet(backend=VisitedBackend.CUCKOO, capacity=cap)
        table = VisitedSet(backend=VisitedBackend.HASH_TABLE, capacity=cap)
        assert cuckoo.memory_bytes() < table.memory_bytes()

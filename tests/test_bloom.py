"""Bloom filter tests: no false negatives, bounded false positives."""

import pytest

from repro.structures.bloom import BloomFilter, optimal_parameters


class TestSizing:
    def test_optimal_parameters_reasonable(self):
        bits, hashes = optimal_parameters(1000, 0.01)
        assert 9000 < bits < 11000  # ~9.6 bits/key at 1%
        assert 5 <= hashes <= 9

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            optimal_parameters(0, 0.01)
        with pytest.raises(ValueError):
            optimal_parameters(10, 1.5)
        with pytest.raises(ValueError):
            BloomFilter(0)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)

    def test_bits_rounded_to_words(self):
        f = BloomFilter(33)
        assert f.num_bits == 64
        assert f.memory_bytes() == 8

    def test_paper_sizing_claim(self):
        """~300 32-bit words handle 1,000 keys below 1% false positives."""
        f = BloomFilter(300 * 32, num_hashes=7)
        for i in range(1000):
            f.insert(i)
        fp = sum(f.contains(k) for k in range(10_000, 30_000)) / 20_000
        assert fp < 0.02  # paper claims <1%; allow slack for hash quality


class TestSemantics:
    def test_no_false_negatives(self):
        f = BloomFilter.for_items(500, 0.01)
        inserted = [i * 37 for i in range(500)]
        for k in inserted:
            f.insert(k)
        for k in inserted:
            assert f.contains(k), "Bloom filter must never lose a key"

    def test_insert_returns_new_flag(self):
        f = BloomFilter.for_items(100)
        assert f.insert(42)
        assert not f.insert(42)

    def test_negative_key_rejected(self):
        f = BloomFilter(64)
        with pytest.raises(ValueError):
            f.insert(-1)
        with pytest.raises(ValueError):
            f.contains(-3)

    def test_fp_rate_near_theory(self):
        f = BloomFilter.for_items(300, 0.05)
        for i in range(300):
            f.insert(i)
        measured = sum(f.contains(k) for k in range(1000, 11000)) / 10_000
        expected = f.expected_fp_rate()
        assert measured <= max(2.5 * expected, 0.10)

    def test_fp_rate_grows_with_fill(self):
        f = BloomFilter(512, num_hashes=4)
        r0 = f.expected_fp_rate()
        for i in range(200):
            f.insert(i)
        assert f.expected_fp_rate() > r0

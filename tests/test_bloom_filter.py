"""Unit and property-based tests for the runtime Bloom filter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bloom import BloomFilter


class TestBloomFilterBasics:
    def test_no_false_negatives_integers(self):
        values = np.arange(0, 5_000, dtype=np.int64)
        bloom = BloomFilter.from_values(values)
        assert bool(bloom.contains_many(values).all())

    def test_no_false_negatives_strings(self):
        values = np.asarray(["FRANCE", "GERMANY", "CANADA"], dtype=object)
        bloom = BloomFilter.from_values(values)
        assert bool(bloom.contains_many(values).all())

    def test_no_false_negatives_floats(self):
        values = np.linspace(0.0, 1.0, 257)
        bloom = BloomFilter.from_values(values)
        assert bool(bloom.contains_many(values).all())

    def test_false_positive_rate_is_low(self):
        rng = np.random.default_rng(7)
        present = rng.integers(0, 1 << 40, size=20_000)
        absent = rng.integers(1 << 41, 1 << 42, size=20_000)
        bloom = BloomFilter.from_values(present)
        observed_fpr = bloom.contains_many(absent).mean()
        assert observed_fpr < 0.15

    def test_single_value_membership(self):
        bloom = BloomFilter(expected_keys=10)
        bloom.add(42)
        assert 42 in bloom

    def test_empty_filter_rejects_everything(self):
        bloom = BloomFilter(expected_keys=100)
        assert not bloom.contains_many(np.arange(100)).any()

    def test_empty_probe(self):
        bloom = BloomFilter.from_values(np.arange(10))
        assert bloom.contains_many(np.asarray([])).shape == (0,)

    def test_saturation_grows_with_inserts(self):
        bloom = BloomFilter(expected_keys=100)
        assert bloom.saturation == 0.0
        bloom.add_many(np.arange(100))
        assert bloom.saturation > 0.0

    def test_size_bytes(self):
        bloom = BloomFilter(expected_keys=1000)
        assert bloom.size_bytes == bloom.num_bits // 8

    def test_num_bits_power_of_two_required(self):
        with pytest.raises(ValueError):
            BloomFilter(expected_keys=0, num_bits=100)

    def test_expected_fpr_reflects_inserts(self):
        bloom = BloomFilter(expected_keys=1000)
        assert bloom.expected_fpr() == 0.0
        bloom.add_many(np.arange(1000))
        assert bloom.expected_fpr() > 0.0


class TestBloomFilterMerge:
    def test_union_contains_both_sides(self):
        left = BloomFilter(expected_keys=0, num_bits=4096)
        right = BloomFilter(expected_keys=0, num_bits=4096)
        left.add_many(np.arange(0, 100))
        right.add_many(np.arange(100, 200))
        merged = left.union(right)
        assert bool(merged.contains_many(np.arange(0, 200)).all())

    def test_union_requires_same_geometry(self):
        left = BloomFilter(expected_keys=0, num_bits=1024)
        right = BloomFilter(expected_keys=0, num_bits=2048)
        with pytest.raises(ValueError):
            left.union(right)

    def test_copy_is_independent(self):
        original = BloomFilter(expected_keys=10)
        copy = original.copy()
        copy.add(5)
        assert 5 in copy
        assert 5 not in original


class TestBloomFilterProperties:
    @given(st.lists(st.integers(min_value=-2**40, max_value=2**40),
                    min_size=1, max_size=500))
    @settings(max_examples=50, deadline=None)
    def test_membership_of_inserted_values(self, values):
        bloom = BloomFilter.from_values(np.asarray(values, dtype=np.int64))
        assert bool(bloom.contains_many(np.asarray(values, dtype=np.int64)).all())

"""Bloom filter primitives used by both the optimizer and the executor."""

from .filter import BloomFilter
from .math import (
    DEFAULT_BITS_PER_KEY,
    DEFAULT_MAX_BUILD_NDV,
    DEFAULT_NUM_HASHES,
    bits_for_keys,
    bloom_filter_bytes,
    expected_fpr_for_build_ndv,
    false_positive_rate,
    optimal_num_bits,
)

__all__ = [
    "BloomFilter",
    "false_positive_rate",
    "optimal_num_bits",
    "bits_for_keys",
    "expected_fpr_for_build_ndv",
    "bloom_filter_bytes",
    "DEFAULT_NUM_HASHES",
    "DEFAULT_BITS_PER_KEY",
    "DEFAULT_MAX_BUILD_NDV",
]

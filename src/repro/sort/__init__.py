"""Tuple sorting: range partitioning + out-of-place LSD radix sort.

Implements the paper's LocalSort (section 3.4): the received tuples are
first range-partitioned into ``T`` disjoint k-mer sub-ranges using
precomputed offsets, then each partition is sorted independently with a
serial out-of-place LSD radix sort over 8-bit digits (8 passes for 64-bit
k-mers, 16 for 128-bit ones).
"""

from repro.sort.radix import (
    RADIX_BITS,
    RADIX_BUCKETS,
    RadixSortStats,
    radix_passes_for,
    radix_sort_tuples,
    counting_sort_by_digit,
)
from repro.sort.partition import range_partition, partition_boundaries_equal
from repro.sort.validate import is_sorted_kmers, verify_sort

__all__ = [
    "RADIX_BITS",
    "RADIX_BUCKETS",
    "RadixSortStats",
    "radix_passes_for",
    "radix_sort_tuples",
    "counting_sort_by_digit",
    "range_partition",
    "partition_boundaries_equal",
    "is_sorted_kmers",
    "verify_sort",
]

"""Tuple sorting: range partitioning + out-of-place LSD radix sort.

Implements the paper's LocalSort (section 3.4): the received tuples are
first range-partitioned into ``T`` disjoint k-mer sub-ranges using
precomputed offsets, then each partition is sorted independently with a
serial out-of-place LSD radix sort over 8-bit digits (8 passes for 64-bit
k-mers, 16 for 128-bit ones).
"""

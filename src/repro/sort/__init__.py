"""Tuple sorting: out-of-place LSD radix sort.

Implements the paper's LocalSort (section 3.4), which range-partitions the
received tuples into ``T`` disjoint k-mer sub-ranges and sorts each with
an out-of-place LSD radix sort over 8-bit digits (8 passes for 64-bit
k-mers, 16 for 128-bit ones).  Here one such sort covers the whole owner
block, and the ``T`` sub-ranges are read off its sorted m-mer prefixes.
"""

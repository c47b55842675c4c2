"""Out-of-place LSD radix sort for (k-mer, read id) tuples.

Paper section 3.4: "We use 8 passes to sort tuples based on the 64-bit
k-mers, with each pass sorting 8 bits (using 256 buckets).  We find that
sorting 8 bits per pass is faster than sorting a higher number of bits
because accessing bucket counts of 256 buckets repeatedly has better
temporal locality."

This module keeps that structure: one stable pass per 8-bit digit, least
significant digit first, each pass gathering the columns into fresh
buffers (out-of-place).  The kernel that runs is
``np.argsort(digit, kind="stable")``: NumPy sorts ``uint8`` (and
``uint16``) keys with an O(n) radix/counting sort, so the per-pass cost
model matches the paper's.  The paper-faithful pass — 256 bucket counts,
prefix sum, stable scatter — is spelled out as the test reference in
``tests/sort/reference_sort.py``, and ``tests/sort/test_radix.py`` pins
the production pass and the whole sort to it, permutation for
permutation.

An adaptive optimization (on by default) skips passes whose digit is
constant across the partition; this is exactly why multipass runs with
narrow per-pass k-mer ranges sort slightly faster.  ``skip_constant=False``
forces the paper's fixed 8/16-pass behaviour for benchmarking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro import telemetry
from repro.kmers.codec import LIMB_BITS, limb_count
from repro.kmers.engine import KmerTuples

RADIX_BITS = 8
RADIX_BUCKETS = 1 << RADIX_BITS


def radix_passes_for(k: int, digit_bits: int = RADIX_BITS) -> int:
    """Nominal radix pass count: one per ``digit_bits`` of key — with
    8-bit digits, 8 for one-limb k-mers and 16 for two."""
    return limb_count(k) * LIMB_BITS // digit_bits


@dataclass
class RadixSortStats:
    """Work accounting for one radix sort invocation."""

    n_tuples: int = 0
    passes_nominal: int = 0
    passes_executed: int = 0
    passes_skipped: int = 0
    bucket_bits: int = RADIX_BITS
    digits_histogrammed: List[int] = field(default_factory=list)

    def merge(self, other: "RadixSortStats") -> "RadixSortStats":
        self.n_tuples += other.n_tuples
        self.passes_nominal += other.passes_nominal
        self.passes_executed += other.passes_executed
        self.passes_skipped += other.passes_skipped
        self.digits_histogrammed.extend(other.digits_histogrammed)
        return self


def radix_sort_tuples(
    tuples: KmerTuples,
    skip_constant: bool = True,
    digit_bits: int = RADIX_BITS,
) -> tuple[KmerTuples, RadixSortStats]:
    """Sort tuples by k-mer, LSD radix, stable in the id payload.

    ``digit_bits`` selects the radix width: 8 (the paper's choice — 256
    buckets, 8/16 passes) or 16 (65536 buckets, 4/8 passes).  The paper
    measured 8-bit digits faster on real hardware because 256 bucket
    counters stay cache-resident; the ablation benchmark
    (``benchmarks/test_ablation_radix_digits.py``) revisits that trade on
    this substrate.  Returns the sorted tuples and per-invocation
    :class:`RadixSortStats`.
    """
    if digit_bits not in (8, 16):
        raise ValueError(f"digit_bits must be 8 or 16, got {digit_bits}")
    nominal = radix_passes_for(tuples.k, digit_bits)
    stats = RadixSortStats(
        n_tuples=len(tuples), passes_nominal=nominal, bucket_bits=digit_bits
    )
    if len(tuples) <= 1:
        stats.passes_skipped = nominal
        return tuples, stats

    kmers, ids = tuples.kmers, tuples.read_ids
    digit_dtype = np.uint8 if digit_bits == 8 else np.uint16
    for digit_index in range(nominal):
        digit = kmers.radix_digit(digit_index, digit_bits).astype(digit_dtype)
        if skip_constant and digit[0] == digit[-1] and not np.any(digit != digit[0]):
            stats.passes_skipped += 1
            continue
        order = np.argsort(digit, kind="stable")
        kmers = kmers.take(order)
        ids = ids[order]
        stats.passes_executed += 1
        stats.digits_histogrammed.append(digit_index)

    return KmerTuples(kmers, ids), stats


def radix_sort_block(block, lo: int, hi: int) -> RadixSortStats:
    """Sort tuples ``[lo, hi)`` of a
    :class:`~repro.runtime.buffers.TupleBlock` in place over its backing.

    The LSD passes ping-pong through the usual out-of-place scratch
    (bounded at one partition, per the paper's memory budget) and the
    final order is written back into the block's columns — under the
    shared-memory dataplane the sorted run therefore lands in the same
    segment the tuples were received into, with no extra round trip.
    Returns the per-invocation :class:`RadixSortStats`.
    """
    part = block.view(lo, hi)
    sorted_part, stats = radix_sort_tuples(part)
    if stats.passes_executed:
        block.write(lo, sorted_part)
    if telemetry.enabled():
        telemetry.add_counter("sort.radix_passes", stats.passes_executed)
        telemetry.add_counter(
            "sort.histogram_fills", stats.passes_executed * stats.n_tuples
        )
    return stats

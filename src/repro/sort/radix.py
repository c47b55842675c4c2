"""Out-of-place LSD radix sort for (k-mer, read id) tuples.

Paper section 3.4: "We use 8 passes to sort tuples based on the 64-bit
k-mers, with each pass sorting 8 bits (using 256 buckets).  We find that
sorting 8 bits per pass is faster than sorting a higher number of bits
because accessing bucket counts of 256 buckets repeatedly has better
temporal locality."

One stable pass per 8-bit digit, least significant first.  A pass gathers
only its digit through the permutation composed so far and orders it with
``np.argsort(digit, kind="stable")`` — an O(n) radix/counting sort for
``uint8``/``uint16`` keys, so the per-pass cost model matches the paper's;
the tuple columns are gathered once, by the final permutation.  The
paper-faithful pass (256 bucket counts, prefix sum, stable scatter) is the
test reference in ``tests/sort/reference_sort.py``, held equal to this one
permutation for permutation.

LocalSort range-partitions a task's tuples into ``T`` thread ranges of
m-mer prefix bins and sorts each range.  The prefix is the key's top
``2m`` bits, so :func:`radix_sort_block` sorts the whole owner block once
and reads the range lengths off the sorted prefixes.

Passes whose digit is constant across the input are skipped (on by
default; why narrow multipass k-mer ranges sort slightly faster).
``skip_constant=False`` forces the paper's fixed 8/16 passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.kmers.codec import LIMB_BITS, KmerArray, limb_count
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

    def merge(self, other: "RadixSortStats") -> "RadixSortStats":
        self.n_tuples += other.n_tuples
        self.passes_nominal += other.passes_nominal
        self.passes_executed += other.passes_executed
        self.passes_skipped += other.passes_skipped
        return self


def _lsd_permutation(
    kmers: KmerArray, stats: RadixSortStats, skip_constant: bool
) -> np.ndarray | None:
    """The stable LSD sort order of ``kmers``, counting passes into
    ``stats``; ``None`` when no pass ran (the input order is the sort).
    At most the permutation, one pass's order and their composition are
    live: 24 bytes per tuple."""
    digit_bits = stats.bucket_bits
    digit_dtype = np.uint8 if digit_bits == 8 else np.uint16
    perm = None
    for digit_index in range(stats.passes_nominal if len(kmers) > 1 else 0):
        digit = kmers.radix_digit(digit_index, digit_bits).astype(digit_dtype)
        if skip_constant and digit[0] == digit[-1] and not np.any(digit != digit[0]):
            continue
        if perm is not None:
            digit = digit[perm]
        order = np.argsort(digit, kind="stable")
        del digit
        perm = order if perm is None else perm[order]
        del order
        stats.passes_executed += 1
    stats.passes_skipped = stats.passes_nominal - stats.passes_executed
    return perm


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
    stats = RadixSortStats(n_tuples=len(tuples), passes_nominal=nominal, bucket_bits=digit_bits)
    perm = _lsd_permutation(tuples.kmers, stats, skip_constant)
    return (tuples if perm is None else tuples.take(perm)), stats


def radix_sort_block(
    block, length: int, m: int, thread_edges: np.ndarray
) -> tuple[np.ndarray, RadixSortStats]:
    """LocalSort: sort tuples ``[0, length)`` of a
    :class:`~repro.runtime.buffers.TupleBlock` in place over its backing
    (a shared segment stays the one the tuples were received into).

    Returns the per-thread counts and the :class:`RadixSortStats`.  Thread
    ``t``'s range, m-mer prefix bins ``[thread_edges[t], thread_edges[t+1])``,
    then sits sorted at ``block.view(starts[t], starts[t+1])``, ``starts``
    being the exclusive cumsum of the counts.
    """
    stats = RadixSortStats(n_tuples=length, passes_nominal=radix_passes_for(block.k))
    perm = _lsd_permutation(block.view(0, length).kmers, stats, skip_constant=True)
    if perm is not None:
        for column in block.columns:
            column[:length] = column[:length][perm]
        del perm
    prefix = block.view(0, length).kmers.mmer_prefix(m)
    counts = np.diff(np.searchsorted(prefix, np.asarray(thread_edges, dtype=np.uint64)))
    if telemetry.enabled():
        telemetry.add_counter("sort.radix_passes", stats.passes_executed)
        telemetry.add_counter("sort.histogram_fills", stats.passes_executed * stats.n_tuples)
    return counts, stats

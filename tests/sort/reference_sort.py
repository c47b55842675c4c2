"""Sort references: the paper's LocalSort steps spelled out plainly, as
oracles for the production kernels in :mod:`repro.sort`.

* :func:`counting_sort_by_digit` — one LSD pass as the paper writes it
  (256 bucket counts, a prefix sum, a stable scatter); the production
  pass is NumPy's stable ``uint8`` argsort and must equal it.
* :func:`range_partition` — the paper's LocalSort range partitioning as
  one mask per thread range; :func:`repro.sort.radix.radix_sort_block`
  must leave exactly these ranges, each sorted, and return their sizes.
* :func:`verify_sort` — a sorted permutation of the input, payloads
  included.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.kmers.engine import KmerTuples
from repro.sort.radix import RADIX_BUCKETS
from repro.sort.validate import is_sorted_kmers


def counting_sort_by_digit(digit: np.ndarray) -> np.ndarray:
    """Stable permutation sorting one 8-bit digit column.

    Returns the gather permutation ``order`` such that ``digit[order]``
    is sorted and equal digits keep their input order.  One whole-column
    scan per occupied bucket makes this O(256·n): a reference, not a
    kernel.
    """
    digit = np.ascontiguousarray(digit, dtype=np.uint8)
    counts = np.bincount(digit, minlength=RADIX_BUCKETS)
    bounds = np.zeros(RADIX_BUCKETS + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    order = np.empty(len(digit), dtype=np.int64)
    for b in np.flatnonzero(counts):
        order[bounds[b] : bounds[b + 1]] = np.flatnonzero(digit == b)
    return order


def range_partition(
    tuples: KmerTuples, m: int, edges: np.ndarray
) -> Tuple[List[KmerTuples], np.ndarray]:
    """Split tuples by m-mer prefix bin into ``len(edges) - 1`` partitions,
    partition ``i`` holding bins ``[edges[i], edges[i+1])`` in input order.
    Returns the partitions and their tuple counts."""
    bins = tuples.kmers.mmer_prefix(m).astype(np.int64)
    parts = [
        tuples.take(np.flatnonzero((bins >= lo) & (bins < hi)))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]
    return parts, np.array([len(p) for p in parts], dtype=np.int64)


def _tuple_multiset_key(tuples: KmerTuples) -> np.ndarray:
    """A canonical row-sorted view of the tuple multiset for comparisons."""
    stacked = np.stack(
        [tuples.read_ids.astype(np.uint64), *tuples.kmers.limbs[::-1]], axis=1
    )
    return stacked[np.lexsort(stacked.T)]


def verify_sort(before: KmerTuples, after: KmerTuples) -> None:
    """Assert ``after`` is a sorted permutation of ``before``."""
    assert len(before) == len(after), (
        f"tuple count changed: {len(before)} -> {len(after)}"
    )
    assert is_sorted_kmers(after.kmers), "output k-mers are not sorted"
    if len(before) == 0:
        return
    a = _tuple_multiset_key(before)
    b = _tuple_multiset_key(after)
    assert np.array_equal(a, b), "output is not a permutation of the input"

"""Sort-output validation helpers (used by tests and debug assertions)."""

from __future__ import annotations

import numpy as np

from repro.kmers.codec import KmerArray
from repro.kmers.engine import KmerTuples


def is_sorted_kmers(kmers: KmerArray) -> bool:
    """True iff the k-mer array is non-decreasing lexicographically."""
    n = len(kmers)
    if n <= 1:
        return True
    return not np.any(kmers.slice(1, n).less_than(kmers.slice(0, n - 1)))


def _tuple_multiset_key(tuples: KmerTuples) -> np.ndarray:
    """A canonical row-sorted view of the tuple multiset for comparisons."""
    stacked = np.stack(
        [tuples.read_ids.astype(np.uint64), *tuples.kmers.limbs[::-1]], axis=1
    )
    return stacked[np.lexsort(stacked.T)]


def verify_sort(before: KmerTuples, after: KmerTuples) -> None:
    """Assert ``after`` is a sorted permutation of ``before``.

    Raises ``AssertionError`` with a diagnostic on violation.
    """
    assert len(before) == len(after), (
        f"tuple count changed: {len(before)} -> {len(after)}"
    )
    assert is_sorted_kmers(after.kmers), "output k-mers are not sorted"
    if len(before) == 0:
        return
    a = _tuple_multiset_key(before)
    b = _tuple_multiset_key(after)
    assert np.array_equal(a, b), "output is not a permutation of the input"

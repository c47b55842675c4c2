"""Sort-order check: LocalCC refuses tuples that are not sorted."""

from __future__ import annotations

import numpy as np

from repro.kmers.codec import KmerArray


def is_sorted_kmers(kmers: KmerArray) -> bool:
    """True iff the k-mer array is non-decreasing lexicographically."""
    n = len(kmers)
    if n <= 1:
        return True
    return not np.any(kmers.slice(1, n).less_than(kmers.slice(0, n - 1)))

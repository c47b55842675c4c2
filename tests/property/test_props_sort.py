"""Hypothesis properties of radix sorting and range partitioning."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmers.codec import KmerArray, KmerCodec
from repro.kmers.engine import KmerTuples
from repro.runtime.buffers import HeapBufferPool
from repro.sort.partition import range_partition_block
from repro.sort.radix import radix_sort_tuples
from repro.sort.validate import is_sorted_kmers
from tests.sort.reference_sort import verify_sort


def tuples_strategy(k):
    limit = (1 << (2 * k)) - 1 if k <= 31 else np.iinfo(np.uint64).max
    return st.lists(
        st.tuples(
            st.integers(0, limit if k <= 31 else (1 << 62)),
            st.integers(0, 2**32 - 1),
        ),
        min_size=0,
        max_size=200,
    )


@settings(max_examples=60)
@given(tuples_strategy(13))
def test_radix_sort_is_sorted_permutation(pairs):
    lo = np.array([p[0] for p in pairs], dtype=np.uint64)
    ids = np.array([p[1] for p in pairs], dtype=np.uint32)
    tuples = KmerTuples(KmerArray(13, lo), ids)
    out, _ = radix_sort_tuples(tuples)
    verify_sort(tuples, out)


@settings(max_examples=30)
@given(tuples_strategy(40))
def test_radix_sort_two_limb(pairs):
    lo = np.array([p[0] for p in pairs], dtype=np.uint64)
    hi = np.array([p[1] % (1 << 16) for p in pairs], dtype=np.uint64)
    ids = np.array([p[1] for p in pairs], dtype=np.uint32)
    tuples = KmerTuples(KmerArray(40, (hi, lo)), ids)
    out, _ = radix_sort_tuples(tuples)
    verify_sort(tuples, out)


@settings(max_examples=60)
@given(tuples_strategy(13))
def test_radix_matches_numpy_sort(pairs):
    lo = np.array([p[0] for p in pairs], dtype=np.uint64)
    ids = np.array([p[1] for p in pairs], dtype=np.uint32)
    tuples = KmerTuples(KmerArray(13, lo), ids)
    out, _ = radix_sort_tuples(tuples)
    assert np.array_equal(out.kmers.lo, np.sort(lo))


@settings(max_examples=60)
@given(tuples_strategy(13))
def test_skip_constant_equivalent_to_full(pairs):
    lo = np.array([p[0] for p in pairs], dtype=np.uint64)
    ids = np.array([p[1] for p in pairs], dtype=np.uint32)
    tuples = KmerTuples(KmerArray(13, lo), ids)
    a, _ = radix_sort_tuples(tuples, skip_constant=True)
    b, _ = radix_sort_tuples(tuples, skip_constant=False)
    assert np.array_equal(a.kmers.lo, b.kmers.lo)
    assert np.array_equal(a.read_ids, b.read_ids)


@settings(max_examples=40)
@given(
    tuples_strategy(13),
    st.integers(1, 6),
    st.integers(2, 4),
)
def test_range_partition_then_sort_equals_global_sort(pairs, n_parts, m):
    """Partitioning by prefix bins then sorting each partition and
    concatenating must equal one global sort — LocalSort's core property."""
    k = 13
    lo = np.array([p[0] for p in pairs], dtype=np.uint64)
    ids = np.array([p[1] for p in pairs], dtype=np.uint32)
    tuples = KmerTuples(KmerArray(k, lo), ids)

    counts = np.bincount(
        tuples.kmers.mmer_prefix(m).astype(np.int64), minlength=4**m
    )
    from repro.index.passplan import balanced_boundaries

    edges = balanced_boundaries(counts, n_parts)
    block = HeapBufferPool().allocate(k, max(len(tuples), 1))
    block.write(0, tuples)
    starts = np.cumsum([0, *range_partition_block(block, len(tuples), m, edges)])
    sorted_parts = [radix_sort_tuples(block.view(lo, hi))[0] for lo, hi in zip(starts, starts[1:])]
    nonempty = [p for p in sorted_parts if len(p)]
    if nonempty:
        merged = KmerTuples.concatenate(nonempty)
    else:
        merged = KmerTuples.empty(k)
    global_sorted, _ = radix_sort_tuples(tuples)
    assert is_sorted_kmers(merged.kmers)
    assert np.array_equal(merged.kmers.lo, global_sorted.kmers.lo)


#: one k on each side of every limb-layout edge, and the widest k
LIMB_GRID = (15, 27, 31, 32, 33, 63)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LIMB_GRID), st.data())
def test_radix_sort_matches_python_int_sort(k, data):
    """Across the limb boundary, the radix sort orders tuples exactly as
    a stable sort of the k-mers as Python integers."""
    keys = data.draw(st.lists(st.integers(0, 4**k - 1), max_size=120))
    ids = list(range(len(keys)))
    kmers = KmerCodec(k).array([(v >> 64, v & (2**64 - 1)) for v in keys])
    out, _ = radix_sort_tuples(KmerTuples(kmers, np.array(ids, np.uint32)))
    want = sorted(zip(keys, ids), key=lambda pair: pair[0])
    got_keys = [
        sum(int(limb) << 64 * i for i, limb in enumerate(reversed(kmer)))
        for kmer in zip(*out.kmers.limbs)
    ]
    assert list(zip(got_keys, out.read_ids.tolist())) == want

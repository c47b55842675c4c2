"""Hypothesis properties of radix sorting and LocalSort's block sort."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmers.codec import KmerArray, KmerCodec
from repro.kmers.engine import KmerTuples
from repro.runtime.buffers import HeapBufferPool
from repro.sort.radix import radix_sort_block, radix_sort_tuples
from tests.sort.reference_sort import range_partition, verify_sort


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


def block_pairs(k):
    """(k-mer as a Python int, read id) pairs; a few fixed keys — the
    smallest, the largest, one in the middle — make equal keys and the
    extreme prefix bins common."""
    key = st.one_of(
        st.integers(0, 4**k - 1), st.sampled_from([0, 4**k - 1, 2 * 4 ** (k - 1)])
    )
    return st.lists(st.tuples(key, st.integers(0, 2**32 - 1)), max_size=200)


def check_block_sort(k, pairs, m, edges):
    """The production LocalSort over a heap block holding ``pairs``
    leaves exactly what the reference range partition, then a stable
    sort of each part, would — tuples and per-thread counts — and never
    touches the slots past the sorted prefix."""
    kmers = KmerCodec(k).array([(v >> 64, v & (2**64 - 1)) for v, _ in pairs])
    tuples = KmerTuples(kmers, np.array([i for _, i in pairs], dtype=np.uint32))
    n, tail = len(tuples), 3
    block = HeapBufferPool().allocate(k, n + tail)
    block.write(0, tuples)
    sentinel = KmerTuples(
        KmerCodec(k).array([(0, 0)] * tail), np.arange(tail, dtype=np.uint32)
    )
    block.write(n, sentinel)

    counts, stats = radix_sort_block(block, n, m, edges)

    parts, want_counts = range_partition(tuples, m, edges)
    assert counts.tolist() == want_counts.tolist()
    want = [p.take(p.kmers.argsort()) for p in parts if len(p)]
    want = KmerTuples.concatenate(want) if want else KmerTuples.empty(k)
    got = block.view(0, n)
    for g, w in zip(got.columns, want.columns):
        assert np.array_equal(g, w)
    for g, w in zip(block.view(n, n + tail).columns, sentinel.columns):
        assert np.array_equal(g, w)
    assert stats == radix_sort_tuples(tuples)[1]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([13, 40]), st.data())
def test_range_partition_then_sort_equals_global_sort(k, data):
    """LocalSort's core property: one stable sort of the owner block is
    the paper's range partition into thread ranges followed by a sort of
    each range.  Edges may repeat (empty ranges) and sit at 0 and 4^m."""
    m = data.draw(st.integers(1, 4))
    pairs = data.draw(block_pairs(k))
    cuts = data.draw(st.lists(st.integers(0, 4**m), max_size=6))
    edges = np.array([0, *sorted(cuts), 4**m], dtype=np.int64)
    check_block_sort(k, pairs, m, edges)


@pytest.mark.parametrize("k", [13, 40])
@pytest.mark.parametrize("n", [0, 1])
def test_block_sort_tiny_blocks(k, n):
    """n = 0 and n = 1 with empty ranges at both ends of the bin span."""
    m = 3
    pairs = [(4**k - 1, 7)] * n
    check_block_sort(k, pairs, m, np.array([0, 0, 4**m, 4**m], dtype=np.int64))


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

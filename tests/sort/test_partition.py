"""LocalSort's thread ranges, as the block sort leaves them.

``radix_sort_block`` sorts an owner block once; thread ``t``'s range of
m-mer prefix bins ``[edges[t], edges[t+1])`` then sits contiguous and
sorted at ``block.view(starts[t], starts[t+1])``, ``starts`` being the
exclusive cumsum of the returned counts.  These tests read the ranges
back out and hold them to the paper's range partition
(``tests/sort/reference_sort.py::range_partition``) followed by a sort of
each range.
"""

import numpy as np
import pytest

from repro.kmers.engine import KmerTuples, enumerate_canonical_kmers
from repro.runtime.buffers import HeapBufferPool
from repro.seqio.records import ReadBatch
from repro.sort.radix import radix_sort_block
from tests.sort.reference_sort import range_partition


@pytest.fixture()
def tuples(rng):
    from tests.conftest import random_reads

    batch = ReadBatch.from_sequences(random_reads(rng, 20, 40))
    return enumerate_canonical_kmers(batch, 9)


def equal_edges(n_bins, n_parts):
    return np.ceil(np.linspace(0, n_bins, n_parts + 1)).astype(np.int64)


def partition_block(tuples, m, edges):
    """Run :func:`radix_sort_block` over a heap block holding ``tuples``;
    return its thread ranges (copied out) and counts."""
    block = HeapBufferPool().allocate(tuples.k, max(len(tuples), 1))
    block.write(0, tuples)
    counts, _ = radix_sort_block(block, len(tuples), m, edges)
    starts = np.concatenate([[0], np.cumsum(counts)])
    parts = [block.view(lo, hi).take(np.arange(hi - lo)) for lo, hi in zip(starts, starts[1:])]
    return parts, counts


def sorted_reference(tuples, m, edges):
    """The paper's LocalSort: range partition, then a stable sort of
    each range."""
    parts, counts = range_partition(tuples, m, edges)
    return [p.take(p.kmers.argsort()) for p in parts], counts


class TestRangePartition:
    def test_partitions_disjoint_and_complete(self, tuples):
        m = 4
        edges = equal_edges(4**m, 3)
        parts, counts = partition_block(tuples, m, edges)
        assert len(parts) == 3
        assert sum(len(p) for p in parts) == len(tuples)
        assert counts.tolist() == [len(p) for p in parts]

    def test_membership_respects_edges(self, tuples):
        m = 4
        edges = equal_edges(4**m, 4)
        parts, _ = partition_block(tuples, m, edges)
        for i, part in enumerate(parts):
            if len(part) == 0:
                continue
            bins = part.kmers.mmer_prefix(m).astype(np.int64)
            assert bins.min() >= edges[i]
            assert bins.max() < edges[i + 1]

    def test_order_within_partition_stable(self, tuples):
        m = 4
        edges = np.array([0, 4**m], dtype=np.int64)
        parts, _ = partition_block(tuples, m, edges)
        # single range: the stable sort of the input, so equal k-mers keep
        # their read ids in input order
        order = np.argsort(tuples.kmers.lo, kind="stable")
        assert np.array_equal(parts[0].kmers.lo, tuples.kmers.lo[order])
        assert np.array_equal(parts[0].read_ids, tuples.read_ids[order])

    @pytest.mark.parametrize("n_parts", [1, 2, 5])
    def test_equals_reference(self, tuples, n_parts):
        m = 4
        edges = equal_edges(4**m, n_parts)
        got, got_counts = partition_block(tuples, m, edges)
        want, want_counts = sorted_reference(tuples, m, edges)
        assert got_counts.tolist() == want_counts.tolist()
        for g, w in zip(got, want):
            assert np.array_equal(g.kmers.lo, w.kmers.lo)
            assert np.array_equal(g.read_ids, w.read_ids)

    def test_equals_reference_two_limb(self, rng):
        from tests.conftest import random_reads

        batch = ReadBatch.from_sequences(random_reads(rng, 20, 60))
        two_limb = enumerate_canonical_kmers(batch, 41)
        m = 3
        edges = equal_edges(4**m, 4)
        got, got_counts = partition_block(two_limb, m, edges)
        want, want_counts = sorted_reference(two_limb, m, edges)
        assert got_counts.tolist() == want_counts.tolist()
        for g, w in zip(got, want):
            for gc, wc in zip(g.columns, w.columns):
                assert np.array_equal(gc, wc)

    def test_subrange_span(self, tuples):
        # an owner block holds only its task's bins; the thread edges span
        # that subrange, not [0, 4^m)
        m = 4
        bins = tuples.kmers.mmer_prefix(m).astype(np.int64)
        lo, hi = 10, 200
        mask = (bins >= lo) & (bins < hi)
        sub = tuples.take(np.flatnonzero(mask))
        edges = np.array([lo, 100, hi], dtype=np.int64)
        parts, counts = partition_block(sub, m, edges)
        assert sum(counts) == len(sub)
        want, want_counts = sorted_reference(sub, m, edges)
        assert counts.tolist() == want_counts.tolist()
        for g, w in zip(parts, want):
            assert np.array_equal(g.kmers.lo, w.kmers.lo)

    def test_empty_tuples(self):
        t = KmerTuples.empty(9)
        parts, counts = partition_block(
            t, 4, np.array([0, 128, 256], dtype=np.int64)
        )
        assert len(parts) == 2
        assert counts.tolist() == [0, 0]

    def test_empty_partitions_allowed(self, tuples):
        m = 4
        n = 4**m
        edges = np.array([0, 0, n, n], dtype=np.int64)
        parts, counts = partition_block(tuples, m, edges)
        assert counts[0] == 0
        assert counts[2] == 0
        assert counts[1] == len(tuples)

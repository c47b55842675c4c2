import numpy as np
import pytest

from repro.kmers.engine import KmerTuples, enumerate_canonical_kmers
from repro.runtime.buffers import HeapBufferPool
from repro.seqio.records import ReadBatch
from repro.sort.partition import range_partition_block
from tests.sort.reference_sort import range_partition


@pytest.fixture()
def tuples(rng):
    from tests.conftest import random_reads

    batch = ReadBatch.from_sequences(random_reads(rng, 20, 40))
    return enumerate_canonical_kmers(batch, 9)


def equal_edges(n_bins, n_parts):
    return np.ceil(np.linspace(0, n_bins, n_parts + 1)).astype(np.int64)


def partition_block(tuples, m, edges, span=None):
    """Run :func:`range_partition_block` over a heap block holding
    ``tuples``; return its partitions (copied out) and counts."""
    block = HeapBufferPool().allocate(tuples.k, max(len(tuples), 1))
    block.write(0, tuples)
    counts = range_partition_block(block, len(tuples), m, edges, span)
    starts = np.concatenate([[0], np.cumsum(counts)])
    parts = [block.view(lo, hi).take(np.arange(hi - lo)) for lo, hi in zip(starts, starts[1:])]
    return parts, counts


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
        # single partition: must be exactly the input order
        assert np.array_equal(parts[0].kmers.lo, tuples.kmers.lo)
        assert np.array_equal(parts[0].read_ids, tuples.read_ids)

    @pytest.mark.parametrize("n_parts", [1, 2, 5])
    def test_equals_reference(self, tuples, n_parts):
        m = 4
        edges = equal_edges(4**m, n_parts)
        got, got_counts = partition_block(tuples, m, edges)
        want, want_counts = range_partition(tuples, m, edges)
        assert got_counts.tolist() == want_counts.tolist()
        for g, w in zip(got, want):
            assert np.array_equal(g.kmers.lo, w.kmers.lo)
            assert np.array_equal(g.read_ids, w.read_ids)

    def test_subrange_span(self, tuples):
        m = 4
        bins = tuples.kmers.mmer_prefix(m).astype(np.int64)
        lo, hi = 10, 200
        mask = (bins >= lo) & (bins < hi)
        sub = tuples.take(np.flatnonzero(mask))
        edges = np.array([lo, 100, hi], dtype=np.int64)
        parts, counts = partition_block(sub, m, edges, span=(lo, hi))
        assert sum(counts) == len(sub)

    def test_empty_tuples(self):
        t = KmerTuples.empty(9)
        parts, counts = partition_block(
            t, 4, np.array([0, 128, 256], dtype=np.int64)
        )
        assert len(parts) == 2
        assert counts.tolist() == [0, 0]

    def test_bad_span_rejected(self, tuples):
        with pytest.raises(ValueError, match="span"):
            partition_block(tuples, 4, np.array([1, 4**4], dtype=np.int64))

    def test_decreasing_edges_rejected(self, tuples):
        with pytest.raises(ValueError, match="non-decreasing"):
            partition_block(
                tuples, 4, np.array([0, 200, 100, 4**4], dtype=np.int64)
            )

    def test_empty_partitions_allowed(self, tuples):
        m = 4
        n = 4**m
        edges = np.array([0, 0, n, n], dtype=np.int64)
        parts, counts = partition_block(tuples, m, edges)
        assert counts[0] == 0
        assert counts[2] == 0
        assert counts[1] == len(tuples)

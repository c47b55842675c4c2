import numpy as np
import pytest

from repro.index.fastqpart import build_fastqpart, load_chunk_reads
from repro.index.offsets import (
    chunk_assignment,
    chunk_send_counts,
    recv_write_offsets,
    send_counts_matrix,
)
from repro.index.passplan import balanced_boundaries
from repro.kmers.engine import enumerate_canonical_kmers
from repro.seqio.fastq import write_fastq
from repro.seqio.records import FastqRecord


K, M = 9, 4


@pytest.fixture()
def table(tmp_path, rng):
    from tests.conftest import random_reads

    recs = [
        FastqRecord(f"r{i}", s, "I" * len(s))
        for i, s in enumerate(random_reads(rng, 40, 30))
    ]
    p = tmp_path / "reads.fastq"
    write_fastq(p, recs)
    return build_fastqpart([str(p)], k=K, m=M, n_chunks=8)


class TestChunkAssignment:
    def test_round_robin(self):
        a = chunk_assignment(10, 2, 2)
        assert a.tolist() == [0, 1, 2, 3, 0, 1, 2, 3, 0, 1]

    def test_every_slot_used_when_enough_chunks(self):
        a = chunk_assignment(16, 2, 4)
        assert set(a.tolist()) == set(range(8))

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            chunk_assignment(4, 0, 2)


class TestSendCounts:
    def _actual_counts(self, table, assignment, edges, P, T, lo=0, hi=None):
        """Ground truth by running the actual enumeration."""
        hi = hi if hi is not None else table.n_bins
        actual = np.zeros((P, T, P), dtype=np.int64)
        for c in range(table.n_chunks):
            p, t = divmod(int(assignment[c]), T)
            batch = load_chunk_reads(table, c)
            tuples = enumerate_canonical_kmers(batch, K)
            bins = tuples.kmers.mmer_prefix(M).astype(np.int64)
            bins = bins[(bins >= lo) & (bins < hi)]
            dest = np.clip(np.searchsorted(edges, bins, side="right") - 1, 0, P - 1)
            for d in range(P):
                actual[p, t, d] += int((dest == d).sum())
        return actual

    def test_exactly_predicts_production(self, table):
        P, T = 2, 2
        assignment = chunk_assignment(table.n_chunks, P, T)
        edges = balanced_boundaries(table.global_histogram(), P)
        predicted = send_counts_matrix(table, assignment, edges, P, T)
        actual = self._actual_counts(table, assignment, edges, P, T)
        assert np.array_equal(predicted, actual)

    def test_with_pass_range_restriction(self, table):
        P, T = 2, 2
        assignment = chunk_assignment(table.n_chunks, P, T)
        hist = table.global_histogram()
        lo, hi = 30, 200
        edges = balanced_boundaries(hist, P, lo, hi)
        predicted = send_counts_matrix(
            table, assignment, edges, P, T, pass_lo=lo, pass_hi=hi
        )
        actual = self._actual_counts(table, assignment, edges, P, T, lo, hi)
        assert np.array_equal(predicted, actual)

    def test_total_preserved(self, table):
        P, T = 3, 2
        assignment = chunk_assignment(table.n_chunks, P, T)
        edges = balanced_boundaries(table.global_histogram(), P)
        counts = send_counts_matrix(table, assignment, edges, P, T)
        assert counts.sum() == table.global_histogram().sum()

    def test_wrong_edge_count_rejected(self, table):
        with pytest.raises(ValueError):
            send_counts_matrix(
                table,
                chunk_assignment(table.n_chunks, 2, 2),
                np.array([0, table.n_bins]),
                2,
                2,
            )


def receive_layout(table, P, T):
    """Send counts and the receive-side layout of one single-pass run."""
    assignment = chunk_assignment(table.n_chunks, P, T)
    edges = balanced_boundaries(table.global_histogram(), P)
    per_chunk = chunk_send_counts(table, edges, P)
    send = send_counts_matrix(table, assignment, edges, P, T)
    return assignment, per_chunk, send, recv_write_offsets(per_chunk, assignment, P, T)


class TestRecvCounts:
    def test_transpose_relation(self, table):
        P, T = 2, 2
        _, _, send, (_, splits, _) = receive_layout(table, P, T)
        recv = np.diff(splits, axis=0)  # recv[q, p]: tuples p gets from q
        for p in range(P):
            for q in range(P):
                assert recv[q, p] == send[q, :, p].sum()

    def test_conservation(self, table):
        P, T = 4, 1
        _, _, send, (_, _, totals) = receive_layout(table, P, T)
        assert totals.sum() == send.sum()
        assert totals.tolist() == send.sum(axis=(0, 1)).tolist()


class TestThreadWriteOffsets:
    def test_layout_destination_major_thread_minor(self, table):
        """Each destination block holds source tasks in rank order and,
        within one, each chunk's tuples at its own precomputed slice."""
        P, T = 2, 2
        assignment, per_chunk, _, (offsets, splits, totals) = receive_layout(table, P, T)
        tasks = assignment // T
        for d in range(P):
            order = np.lexsort((np.arange(table.n_chunks), tasks))
            ends = offsets[order, d] + per_chunk[order, d]
            assert offsets[order[0], d] == 0
            assert np.array_equal(offsets[order[1:], d], ends[:-1])
            assert ends[-1] == totals[d]
            for p in range(P):
                mine = offsets[tasks == p, d]
                if len(mine):
                    assert mine.min() == splits[p, d]

    def test_offsets_start_at_zero(self, table):
        P, T = 2, 3
        assignment, _, _, (offsets, splits, _) = receive_layout(table, P, T)
        first = np.flatnonzero(assignment // T == 0)[0]
        assert offsets[first].tolist() == [0] * P
        assert splits[0].tolist() == [0] * P

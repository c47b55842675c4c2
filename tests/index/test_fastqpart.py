import numpy as np
import pytest

from repro.index.fastqpart import (
    FastqPartTable,
    FastqUnit,
    build_fastqpart,
    load_chunk_reads,
)
from repro.index.merhist import histogram_batch
from repro.seqio.fastq import write_fastq
from repro.seqio.records import FastqRecord


@pytest.fixture()
def paired_files(tmp_path, rng):
    from tests.conftest import random_reads

    n = 23
    r1 = [FastqRecord(f"p{i}/1", s, "I" * len(s)) for i, s in enumerate(random_reads(rng, n, 30))]
    r2 = [FastqRecord(f"p{i}/2", s, "I" * len(s)) for i, s in enumerate(random_reads(rng, n, 30))]
    p1, p2 = tmp_path / "a_R1.fastq", tmp_path / "a_R2.fastq"
    write_fastq(p1, r1)
    write_fastq(p2, r2)
    return str(p1), str(p2), r1, r2


@pytest.fixture()
def single_file(tmp_path, rng):
    from tests.conftest import random_reads

    recs = [
        FastqRecord(f"s{i}", s, "I" * len(s))
        for i, s in enumerate(random_reads(rng, 11, 25))
    ]
    p = tmp_path / "single.fastq"
    write_fastq(p, recs)
    return str(p), recs


class TestFastqUnit:
    def test_wrap_forms(self):
        assert FastqUnit.wrap("a.fastq") == FastqUnit("a.fastq")
        assert FastqUnit.wrap(("a", "b")) == FastqUnit("a", "b")
        u = FastqUnit("x")
        assert FastqUnit.wrap(u) is u

    def test_wrap_rejects_garbage(self):
        with pytest.raises(TypeError):
            FastqUnit.wrap(123)

    def test_paired_property(self):
        assert FastqUnit("a", "b").paired
        assert not FastqUnit("a").paired
        assert FastqUnit("a", "b").files == ["a", "b"]


class TestBuildPaired:
    def test_chunks_tile_reads(self, paired_files):
        p1, p2, r1, _ = paired_files
        table = build_fastqpart([(p1, p2)], k=9, m=4, n_chunks=5)
        assert table.n_chunks == 5
        assert table.total_reads == len(r1)
        assert table.read_lo[0] == 0
        assert table.read_hi[-1] == len(r1)
        assert np.array_equal(table.read_lo[1:], table.read_hi[:-1])

    def test_chunk_reads_pair_interleaved_with_shared_ids(self, paired_files):
        p1, p2, r1, r2 = paired_files
        table = build_fastqpart([(p1, p2)], k=9, m=4, n_chunks=4)
        batch = load_chunk_reads(table, 1)
        lo, hi = int(table.read_lo[1]), int(table.read_hi[1])
        assert batch.n_reads == 2 * (hi - lo)
        # ids repeat pairwise
        ids = batch.read_ids.tolist()
        assert ids == [i for g in range(lo, hi) for i in (g, g)]
        # sequences interleave R1, R2
        assert batch.sequence(0) == r1[lo].sequence
        assert batch.sequence(1) == r2[lo].sequence

    def test_all_chunks_reconstruct_input(self, paired_files):
        p1, p2, r1, r2 = paired_files
        table = build_fastqpart([(p1, p2)], k=9, m=4, n_chunks=6)
        seqs = []
        for c in range(table.n_chunks):
            batch = load_chunk_reads(table, c)
            seqs.extend(batch.sequence(i) for i in range(batch.n_reads))
        want = [s for a, b in zip(r1, r2) for s in (a.sequence, b.sequence)]
        assert seqs == want

    def test_chunk_histograms_sum_to_merhist(self, paired_files):
        p1, p2, r1, r2 = paired_files
        k, m = 9, 4
        table = build_fastqpart([(p1, p2)], k=k, m=m, n_chunks=5)
        batches = [load_chunk_reads(table, c) for c in range(table.n_chunks)]
        global_hist = sum(histogram_batch(b, k, m).astype(np.int64) for b in batches)
        assert np.array_equal(table.global_histogram(), global_hist)

    def test_mate_count_mismatch_rejected(self, tmp_path, paired_files):
        p1, p2, r1, _ = paired_files
        # truncate mate file
        short = tmp_path / "short_R2.fastq"
        write_fastq(short, [FastqRecord("x", "ACGT", "IIII")])
        with pytest.raises(ValueError, match="mate counts differ"):
            build_fastqpart([(p1, str(short))], k=9, m=4, n_chunks=2)


class TestBuildSingle:
    def test_single_end(self, single_file):
        p, recs = single_file
        table = build_fastqpart([p], k=9, m=4, n_chunks=3)
        assert table.total_reads == len(recs)
        batch = load_chunk_reads(table, 0)
        assert batch.sequence(0) == recs[0].sequence
        assert (table.size2 == 0).all()

    def test_mixed_units(self, single_file, paired_files):
        p, recs = single_file
        p1, p2, r1, _ = paired_files
        table = build_fastqpart([p, (p1, p2)], k=9, m=4, n_chunks=6)
        assert table.total_reads == len(recs) + len(r1)
        # read ids of the second unit start after the first
        second_unit_chunks = np.flatnonzero(table.unit == 1)
        assert table.read_lo[second_unit_chunks[0]] == len(recs)

    def test_more_chunks_than_reads_capped(self, tmp_path):
        recs = [FastqRecord("a", "ACGTACGT", "IIIIIIII")]
        p = tmp_path / "one.fastq"
        write_fastq(p, recs)
        table = build_fastqpart([str(p)], k=4, m=2, n_chunks=4)
        assert table.n_chunks == 1

    def test_empty_input_rejected(self, tmp_path):
        p = tmp_path / "empty.fastq"
        p.write_text("")
        with pytest.raises(ValueError, match="no reads"):
            build_fastqpart([str(p)], k=4, m=2, n_chunks=2)

    def test_no_units_rejected(self):
        with pytest.raises(ValueError):
            build_fastqpart([], k=4, m=2, n_chunks=2)


class TestPersistence:
    def test_save_load_roundtrip(self, paired_files, tmp_path):
        p1, p2, _, _ = paired_files
        table = build_fastqpart([(p1, p2)], k=9, m=4, n_chunks=4)
        path = tmp_path / "fastqpart.bin"
        table.save(path)
        back = FastqPartTable.load(path)
        assert back.k == table.k
        assert back.total_reads == table.total_reads
        assert np.array_equal(back.hist, table.hist)
        assert np.array_equal(back.offset1, table.offset1)
        assert back.units[0].r1 == p1
        # loaded table is fully functional
        batch = load_chunk_reads(back, 0)
        assert batch.n_reads > 0

    def test_nbytes_dominated_by_hist(self, paired_files):
        p1, p2, _, _ = paired_files
        table = build_fastqpart([(p1, p2)], k=9, m=4, n_chunks=4)
        assert table.nbytes >= table.hist.nbytes

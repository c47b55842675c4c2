import numpy as np
import pytest

from repro.index.fastqpart import build_fastqpart, load_chunk_reads
from repro.seqio.fastq import (
    FastqParseError,
    read_fastq,
    record_boundaries,
    write_fastq,
)
from repro.seqio.records import FastqRecord, ReadBatch


def _recs(n=5, length=8):
    return [
        FastqRecord(f"read{i}", "ACGT" * (length // 4), "I" * length)
        for i in range(n)
    ]


class TestRoundtrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "x.fastq"
        recs = _recs(5)
        assert write_fastq(path, recs) == 5
        back = read_fastq(path)
        assert back == recs

    def test_append(self, tmp_path):
        path = tmp_path / "x.fastq"
        write_fastq(path, _recs(2))
        write_fastq(path, _recs(3), append=True)
        assert len(read_fastq(path)) == 5

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "x.fastq"
        write_fastq(path, _recs(1))
        assert path.exists()

    def test_count_reads(self, tmp_path):
        path = tmp_path / "x.fastq"
        write_fastq(path, _recs(7))
        assert len(read_fastq(path)) == 7


class TestParseErrors:
    def test_missing_at_header(self, tmp_path):
        path = tmp_path / "bad.fastq"
        path.write_text("read1\nACGT\n+\nIIII\n")
        with pytest.raises(FastqParseError, match="'@'"):
            read_fastq(path)

    def test_missing_plus(self, tmp_path):
        path = tmp_path / "bad.fastq"
        path.write_text("@read1\nACGT\nIIII\nACGT\n")
        with pytest.raises(FastqParseError, match=r"\+"):
            read_fastq(path)

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.fastq"
        path.write_text("@read1\nACGT\n+\nII\n")
        with pytest.raises(FastqParseError, match="mismatch"):
            read_fastq(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "bad.fastq"
        path.write_text("@read1\n")
        with pytest.raises(FastqParseError):
            read_fastq(path)

    def test_trailing_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "ok.fastq"
        path.write_text("@r\nACGT\n+\nIIII\n\n\n")
        assert len(read_fastq(path)) == 1


class TestRegions:
    def test_boundaries_cover_file(self, tmp_path):
        path = tmp_path / "x.fastq"
        recs = _recs(4)
        write_fastq(path, recs)
        bounds = record_boundaries(path)
        assert len(bounds) == 5
        assert bounds[0] == 0
        assert bounds[-1] == path.stat().st_size

    def test_region_reads_exact_records(self, tmp_path):
        path = tmp_path / "x.fastq"
        recs = _recs(6)
        write_fastq(path, recs)
        # chunks of 2 reads: chunk 1 holds records 2..3
        table = build_fastqpart([str(path)], k=5, m=2, n_chunks=3)
        assert table.offset1[1] == record_boundaries(path)[2]
        _assert_batch_equal(load_chunk_reads(table, 1), recs[2:4], [2, 3])

    def test_regions_tile_file(self, tmp_path):
        path = tmp_path / "x.fastq"
        recs = _recs(9)
        write_fastq(path, recs)
        table = build_fastqpart([str(path)], k=5, m=2, n_chunks=3)
        bounds = record_boundaries(path)
        assert table.offset1.tolist() == bounds[[0, 3, 6]].tolist()
        assert int(table.size1.sum()) == path.stat().st_size
        collected = ReadBatch.concatenate(
            [load_chunk_reads(table, c) for c in range(table.n_chunks)]
        )
        _assert_batch_equal(collected, recs, range(9))


def _assert_batch_equal(batch, records, ids):
    want = ReadBatch.from_records(records, ids)
    assert np.array_equal(batch.codes, want.codes)
    assert np.array_equal(batch.offsets, want.offsets)
    assert np.array_equal(batch.read_ids, want.read_ids)


class TestInterleave:
    """Mates interleave R1, R2 per pair inside each chunk load."""

    def test_interleaves(self, tmp_path):
        r1 = _recs(2)
        r2 = [FastqRecord(f"m{i}", "GGGG", "IIII") for i in range(2)]
        write_fastq(tmp_path / "a_R1.fastq", r1)
        write_fastq(tmp_path / "a_R2.fastq", r2)
        unit = (str(tmp_path / "a_R1.fastq"), str(tmp_path / "a_R2.fastq"))
        batch = load_chunk_reads(build_fastqpart([unit], k=3, m=2, n_chunks=1), 0)
        _assert_batch_equal(batch, [r1[0], r2[0], r1[1], r2[1]], [0, 0, 1, 1])

    def test_mismatched_lengths_rejected(self, tmp_path):
        write_fastq(tmp_path / "a_R1.fastq", _recs(2))
        write_fastq(tmp_path / "a_R2.fastq", _recs(3))
        unit = (str(tmp_path / "a_R1.fastq"), str(tmp_path / "a_R2.fastq"))
        with pytest.raises(ValueError, match="mate counts differ"):
            build_fastqpart([unit], k=3, m=2, n_chunks=1)

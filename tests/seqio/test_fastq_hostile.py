"""Hostile FASTQ inputs against the one record scanner.

Each cell ends in a typed error, or in the same records from all three
readers built on :func:`repro.seqio.fastq.scan_fastq` — whole-file
``read_fastq``, IndexCreate's ``record_boundaries``, and ``load_chunk_reads``
over a multi-chunk table — and from the reference line-by-line parser.
"""

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.index.fastqpart import build_fastqpart, load_chunk_reads
from repro.seqio.fastq import FastqParseError, read_fastq, record_boundaries
from repro.seqio.records import ReadBatch
from tests.seqio.reference_fastq import reference_read_fastq

K = 7


def _records(n=8, length=12):
    bases = "ACGT"
    return [
        (f"r{i}/1", "".join(bases[(i + j) % 4] for j in range(length)), "I" * length)
        for i in range(n)
    ]


def _fastq(records, newline="\n", between="", final_newline=True) -> bytes:
    text = between.join(
        f"@{name}{newline}{seq}{newline}+{newline}{qual}{newline}"
        for name, seq, qual in records
    )
    if not final_newline:
        text = text[: -len(newline)]
    return text.encode("ascii")


def _write(tmp_path, data: bytes, name="in.fastq"):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def _assert_readers_agree(path, n_chunks=3):
    want = reference_read_fastq(path)
    assert read_fastq(path) == want
    bounds = record_boundaries(path)
    data = path.read_bytes()
    assert len(bounds) == len(want) + 1
    assert bounds[-1] == len(data)
    assert all(data[b : b + 1] == b"@" for b in bounds[:-1])
    table = build_fastqpart([str(path)], k=K, m=2, n_chunks=n_chunks)
    assert table.n_chunks == n_chunks
    got = ReadBatch.concatenate(
        [load_chunk_reads(table, c) for c in range(table.n_chunks)]
    )
    ref = ReadBatch.from_records(want)
    assert np.array_equal(got.codes, ref.codes)
    assert np.array_equal(got.offsets, ref.offsets)
    assert np.array_equal(got.read_ids, ref.read_ids)
    return want


def _assert_rejected(path, match):
    with pytest.raises(FastqParseError, match=match):
        read_fastq(path)
    with pytest.raises(FastqParseError, match=match):
        build_fastqpart([str(path)], k=K, m=2, n_chunks=2)


class TestAccepted:
    def test_crlf(self, tmp_path):
        path = _write(tmp_path, _fastq(_records(), newline="\r\n"))
        assert len(_assert_readers_agree(path)) == 8

    def test_missing_final_newline(self, tmp_path):
        path = _write(tmp_path, _fastq(_records(), final_newline=False))
        assert len(_assert_readers_agree(path)) == 8

    def test_missing_final_newline_written_with_one(self, tmp_path):
        """CC-I/O gives the last record the newline its input lacked."""
        data = _fastq(_records(), final_newline=False)
        path = _write(tmp_path, data)
        out = tmp_path / "out"
        cfg = PipelineConfig(k=K, m=2, n_tasks=1, n_threads=2, n_chunks=3)
        MetaPrep(cfg).run([str(path)], output_dir=out)
        written = [p.read_bytes() for p in sorted(out.iterdir())]
        assert sum(len(w) for w in written) == len(data) + 1
        assert all(w.endswith(b"\n") and not w.endswith(b"\n\n") for w in written if w)

    def test_blank_lines_between_records(self, tmp_path):
        path = _write(tmp_path, b"\n" + _fastq(_records(), between="\n\n") + b"\n\n")
        assert len(_assert_readers_agree(path)) == 8

    def test_reads_shorter_than_k(self, tmp_path):
        records = _records(length=K - 1) + _records(length=2 * K)
        path = _write(tmp_path, _fastq(records))
        assert len(_assert_readers_agree(path, n_chunks=4)) == 16

    def test_all_n_reads(self, tmp_path):
        records = [(name, "N" * len(seq), qual) for name, seq, qual in _records()]
        path = _write(tmp_path, _fastq(records))
        _assert_readers_agree(path)
        table = build_fastqpart([str(path)], k=K, m=2, n_chunks=2)
        assert table.global_histogram().sum() == 0

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path, b"")
        assert read_fastq(path) == []
        assert record_boundaries(path).tolist() == [0]
        with pytest.raises(ValueError, match="no reads"):
            build_fastqpart([str(path)], k=K, m=2, n_chunks=2)


class TestRejected:
    def test_truncated_final_record(self, tmp_path):
        path = _write(tmp_path, _fastq(_records()) + b"@r8/1\n")
        _assert_rejected(path, r"in\.fastq:36: truncated record")

    def test_half_final_record(self, tmp_path):
        path = _write(tmp_path, _fastq(_records()) + b"@r8/1\nACGT\n+\n")
        _assert_rejected(path, r"in\.fastq:36: sequence/quality length mismatch \(4 vs 0\)")

    def test_junk_line_fails_at_index_create(self, tmp_path):
        """A non-``@`` line between records used to be skipped by boundary
        discovery and only failed later, at a chunk load; now IndexCreate
        names its file and line."""
        data = _fastq(_records(2)) + b"junk\n" + _fastq(_records(2))
        path = _write(tmp_path, data)
        _assert_rejected(path, r"in\.fastq:9: expected '@' header, got 'junk'")

    def test_mate_count_mismatch(self, tmp_path):
        r1 = _write(tmp_path, _fastq(_records(8)), "a_R1.fastq")
        r2 = _write(tmp_path, _fastq(_records(7)), "a_R2.fastq")
        with pytest.raises(ValueError, match=r"mate counts differ \(8 vs 7\)"):
            build_fastqpart([(str(r1), str(r2))], k=K, m=2, n_chunks=2)

    def test_non_ascii_byte(self, tmp_path):
        data = _fastq(_records(2)).replace(b"@r1/1", b"@r1/\xe9")
        path = _write(tmp_path, data)
        _assert_rejected(path, r"in\.fastq:5: non-ASCII byte 0xe9")

    def test_carriage_return_inside_a_line(self, tmp_path):
        """A lone ``\\r`` is not a line break here (a universal-newline text
        reader would split on it): it is rejected rather than misread."""
        data = _fastq(_records(2)).replace(b"+\n", b"+\rx\n", 1)
        path = _write(tmp_path, data)
        _assert_rejected(path, r"in\.fastq:3: carriage return inside a line")

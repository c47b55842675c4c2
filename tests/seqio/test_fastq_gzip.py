import pytest

from repro.index.fastqpart import build_fastqpart
from repro.seqio.fastq import (
    FastqParseError,
    read_fastq,
    record_boundaries,
    write_fastq,
)
from repro.seqio.records import FastqRecord


def _recs(n=5):
    return [FastqRecord(f"r{i}", "ACGTACGT", "IIIIIIII") for i in range(n)]


class TestGzipRoundtrip:
    def test_write_read_gz(self, tmp_path):
        path = tmp_path / "x.fastq.gz"
        write_fastq(path, _recs(5))
        assert read_fastq(path) == _recs(5)
        # file really is gzip
        assert path.read_bytes()[:2] == b"\x1f\x8b"

    def test_append_gz(self, tmp_path):
        path = tmp_path / "x.fastq.gz"
        write_fastq(path, _recs(2))
        write_fastq(path, _recs(3), append=True)
        assert len(read_fastq(path)) == 5

    def test_plain_unaffected(self, tmp_path):
        path = tmp_path / "x.fastq"
        write_fastq(path, _recs(2))
        assert path.read_bytes()[:1] == b"@"


class TestGzipChunkedAccessRejected:
    def test_region_rejected(self, tmp_path):
        """Chunk regions come from boundary discovery, so a gzip input is
        turned away there, before any region is read."""
        path = tmp_path / "x.fastq.gz"
        write_fastq(path, _recs(2))
        with pytest.raises(FastqParseError, match="decompress"):
            build_fastqpart([str(path)], k=5, m=2, n_chunks=1)

    def test_boundaries_rejected(self, tmp_path):
        path = tmp_path / "x.fastq.gz"
        write_fastq(path, _recs(2))
        with pytest.raises(FastqParseError, match="decompress"):
            record_boundaries(path)

import pytest

from repro.seqio.fasta import write_contigs, write_fasta
from tests.seqio.reference_fasta import read_fasta


class TestRoundtrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "x.fasta"
        records = [("seq1 desc", "ACGT" * 30), ("seq2", "TTTT")]
        assert write_fasta(path, records) == 2
        assert read_fasta(path) == records

    def test_line_wrapping(self, tmp_path):
        path = tmp_path / "x.fasta"
        write_fasta(path, [("a", "A" * 205)], line_width=80)
        lines = path.read_text().splitlines()
        assert lines[0] == ">a"
        assert [len(x) for x in lines[1:]] == [80, 80, 45]
        assert read_fasta(path) == [("a", "A" * 205)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.fasta"
        write_fasta(path, [])
        assert read_fasta(path) == []

    def test_invalid_line_width(self, tmp_path):
        with pytest.raises(ValueError):
            write_fasta(tmp_path / "x.fasta", [], line_width=0)


class TestWriteContigs:
    def test_headers_carry_lengths(self, tmp_path):
        path = tmp_path / "c.fasta"
        write_contigs(path, ["ACGTACGT", "TT"])
        back = read_fasta(path)
        assert back[0][0] == "contig_0 len=8"
        assert back[1][1] == "TT"


class TestParsing:
    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "x.fasta"
        path.write_text(">a\nACGT\n\n>b\n\nGG\n")
        assert read_fasta(path) == [("a", "ACGT"), ("b", "GG")]

    def test_multiline_sequence_joined(self, tmp_path):
        path = tmp_path / "x.fasta"
        path.write_text(">a\nAC\nGT\nTT\n")
        assert read_fasta(path) == [("a", "ACGTTT")]

    def test_sequence_before_header_rejected(self, tmp_path):
        path = tmp_path / "x.fasta"
        path.write_text("ACGT\n>a\nGG\n")
        with pytest.raises(ValueError, match="before any"):
            read_fasta(path)

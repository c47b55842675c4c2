import numpy as np
import pytest

from repro.seqio.alphabet import (
    CODE_INVALID,
    complement_codes,
    decode_sequence,
    encode_sequence,
    reverse_complement,
)


class TestEncodeDecode:
    def test_canonical_codes(self):
        assert encode_sequence("ACGT").tolist() == [0, 1, 2, 3]

    def test_case_insensitive(self):
        assert np.array_equal(encode_sequence("acgt"), encode_sequence("ACGT"))

    def test_n_and_garbage_invalid(self):
        codes = encode_sequence("NXZ@")
        assert (codes == CODE_INVALID).all()

    def test_roundtrip(self):
        seq = "ACGTACGTNNACGT"
        assert decode_sequence(encode_sequence(seq)) == seq

    def test_empty(self):
        assert len(encode_sequence("")) == 0
        assert decode_sequence(np.empty(0, dtype=np.uint8)) == ""

    def test_bytes_input(self):
        assert np.array_equal(encode_sequence(b"ACGT"), encode_sequence("ACGT"))

    def test_invalid_codes_decode_to_n(self):
        assert decode_sequence(np.array([7, 200], dtype=np.uint8)) == "NN"


class TestComplement:
    def test_complement_pairs(self):
        codes = encode_sequence("ACGT")
        assert decode_sequence(complement_codes(codes)) == "TGCA"

    def test_invalid_stays_invalid(self):
        codes = encode_sequence("N")
        assert complement_codes(codes)[0] == CODE_INVALID

    def test_involution(self):
        codes = encode_sequence("ACGTACGT")
        assert np.array_equal(complement_codes(complement_codes(codes)), codes)


class TestReverseComplement:
    @pytest.mark.parametrize(
        "seq,expected",
        [("A", "T"), ("ACGT", "ACGT"), ("AAACC", "GGTTT"), ("ACGTN", "NACGT")],
    )
    def test_known_values(self, seq, expected):
        assert reverse_complement(seq) == expected

    def test_involution(self):
        seq = "ACCGTTGAAACGT"
        assert reverse_complement(reverse_complement(seq)) == seq

import numpy as np
import pytest

from repro.kmers.codec import (
    MAX_K_ONE_LIMB,
    KmerArray,
    KmerCodec,
    limb_count,
    tuple_bytes,
    tuple_columns,
)
from repro.seqio.alphabet import reverse_complement


class TestKmerCodecScalar:
    def test_encode_decode_roundtrip_small_k(self):
        codec = KmerCodec(5)
        for s in ["AAAAA", "ACGTA", "TTTTT", "GCGCG"]:
            assert codec.decode(*codec.encode(s)) == s

    def test_encode_values_lexicographic(self):
        codec = KmerCodec(3)
        vals = [codec.encode(s)[1] for s in ["AAA", "AAC", "ACA", "TTT"]]
        assert vals == sorted(vals)
        assert vals[0] == 0
        assert vals[-1] == 4**3 - 1

    def test_two_limb_roundtrip(self):
        codec = KmerCodec(45)
        s = ("ACGT" * 12)[:45]
        hi, lo = codec.encode(s)
        assert hi > 0  # 45-mers need > 64 bits
        assert codec.decode(hi, lo) == s

    def test_boundary_k_32(self):
        codec = KmerCodec(32)
        s = "A" * 31 + "T"
        hi, lo = codec.encode(s)
        assert codec.decode(hi, lo) == s

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            KmerCodec(5).encode("ACGTAC")

    def test_n_rejected(self):
        with pytest.raises(ValueError):
            KmerCodec(4).encode("ACGN")

    def test_revcomp_matches_string(self):
        codec = KmerCodec(7)
        s = "ACCGTTG"
        hi, lo = codec.encode(s)
        rhi, rlo = codec.revcomp(hi, lo)
        assert codec.decode(rhi, rlo) == reverse_complement(s)

    def test_revcomp_two_limb(self):
        codec = KmerCodec(40)
        s = ("ACGGT" * 8)[:40]
        rhi, rlo = codec.revcomp(*codec.encode(s))
        assert codec.decode(rhi, rlo) == reverse_complement(s)

    def test_canonical_is_min(self):
        codec = KmerCodec(5)
        assert codec.canonical("TTTTT") == "AAAAA"
        assert codec.canonical("AAAAA") == "AAAAA"

    def test_canonical_invariant_under_revcomp(self):
        codec = KmerCodec(9)
        s = "ACCGTTGAC"
        assert codec.canonical(s) == codec.canonical(reverse_complement(s))

    def test_tuple_bytes(self):
        assert KmerCodec(27).tuple_bytes == 12
        assert KmerCodec(31).tuple_bytes == 12
        assert KmerCodec(32).tuple_bytes == 20
        assert KmerCodec(63).tuple_bytes == 20

    @pytest.mark.parametrize("k,limbs", [(1, 1), (31, 1), (32, 2), (63, 2)])
    def test_limb_count_is_not_ceil_2k_over_64(self, k, limbs):
        # k = 32 fills exactly 64 bits yet takes two limbs (20-byte tuples)
        assert limb_count(k) == limbs
        assert tuple_bytes(k) == 8 * limbs + 4

    def test_tuple_columns_order(self):
        assert [name for name, _ in tuple_columns(27)] == ["lo", "ids"]
        assert [name for name, _ in tuple_columns(32)] == ["hi", "lo", "ids"]

    @pytest.mark.parametrize("bad_k", [0, 64, 100])
    def test_invalid_k_rejected(self, bad_k):
        with pytest.raises(ValueError):
            KmerCodec(bad_k)


class TestKmerArray:
    def test_limb_policy_enforced(self):
        with pytest.raises(ValueError):
            KmerArray(40, np.zeros(3, dtype=np.uint64))  # needs two limbs
        with pytest.raises(ValueError):
            KmerArray(10, (np.zeros(3, dtype=np.uint64),) * 2)
        with pytest.raises(ValueError, match="shape"):
            KmerArray(40, (np.zeros(3, np.uint64), np.zeros(2, np.uint64)))

    def test_minimum_one_limb(self):
        a = KmerArray(5, np.array([5, 10, 3], dtype=np.uint64))
        b = KmerArray(5, np.array([7, 2, 3], dtype=np.uint64))
        assert a.minimum(b).lo.tolist() == [5, 2, 3]

    def test_minimum_two_limb_hi_dominates(self):
        a = KmerCodec(40).array([(2, 0), (1, 5)])
        b = KmerCodec(40).array([(1, 100), (1, 3)])
        result = b.minimum(a)
        assert result.hi.tolist() == [1, 1]
        assert result.lo.tolist() == [100, 3]

    def test_less_than_two_limb_tie_break_on_lo(self):
        a = KmerCodec(40).array([(5, 1)])
        b = KmerCodec(40).array([(5, 2)])
        assert a.less_than(b).tolist() == [True]
        assert b.less_than(a).tolist() == [False]

    def test_mmer_prefix_one_limb(self):
        codec = KmerCodec(6)
        arr = codec.from_strings(["ACGTAC", "TTGCAA"])
        codec2 = KmerCodec(2)
        prefixes = arr.mmer_prefix(2)
        assert prefixes[0] == codec2.encode("AC")[1]
        assert prefixes[1] == codec2.encode("TT")[1]

    def test_mmer_prefix_two_limb_straddle(self):
        # k=40: prefix of m=6 lives entirely in hi; m=20 straddles limbs
        codec = KmerCodec(40)
        s = "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"
        arr = codec.from_strings([s])
        for m in (6, 20, 32):
            want = KmerCodec(m).encode(s[:m])[1]
            assert arr.mmer_prefix(m)[0] == want, f"m={m}"

    def test_radix_digit(self):
        arr = KmerArray(5, np.array([0x1234], dtype=np.uint64))
        assert arr.radix_digit(0)[0] == 0x34
        assert arr.radix_digit(1)[0] == 0x12
        assert arr.radix_digit(0, bits=16)[0] == 0x1234
        with pytest.raises(ValueError):
            arr.radix_digit(8)  # 8 byte digits in one limb

    def test_radix_digit_two_limb(self):
        arr = KmerCodec(40).array([(0xCD, 0xAB)])
        assert arr.radix_digit(0)[0] == 0xAB
        assert arr.radix_digit(8)[0] == 0xCD
        assert arr.radix_digit(4, bits=16)[0] == 0xCD
        with pytest.raises(ValueError):
            arr.radix_digit(16)

    def test_run_boundaries(self):
        arr = KmerArray(3, np.array([1, 1, 2, 5, 5, 5], dtype=np.uint64))
        assert arr.run_boundaries().tolist() == [0, 2, 3, 6]

    def test_run_boundaries_empty(self):
        assert KmerArray.empty(3).run_boundaries().tolist() == [0]

    def test_argsort_two_limb(self):
        arr = KmerCodec(40).array([(1, 1), (2, 0), (0, 2)])
        order = arr.argsort()
        s = arr.take(order)
        pairs = list(zip(s.hi.tolist(), s.lo.tolist()))
        assert pairs == sorted(pairs)

    def test_concatenate_and_slice(self):
        a = KmerArray(5, np.array([1, 2], dtype=np.uint64))
        b = KmerArray(5, np.array([3], dtype=np.uint64))
        c = KmerArray.concatenate([a, b])
        assert len(c) == 3
        assert c.slice(1, 3).lo.tolist() == [2, 3]

    def test_concatenate_k_mismatch_rejected(self):
        a = KmerArray(5, np.array([1], dtype=np.uint64))
        b = KmerArray(6, np.array([1], dtype=np.uint64))
        with pytest.raises(ValueError):
            KmerArray.concatenate([a, b])

    def test_decode_array(self):
        codec = KmerCodec(4)
        arr = codec.from_strings(["ACGT", "TTTT"])
        assert codec.decode_array(arr) == ["ACGT", "TTTT"]

    def test_max_one_limb_boundary(self):
        assert MAX_K_ONE_LIMB == 31
        # k=31 should pack into a single limb without overflow
        codec = KmerCodec(31)
        s = "T" * 31
        hi, lo = codec.encode(s)
        assert hi == 0
        assert codec.decode(hi, lo) == s

    def test_k32_mmer_prefix_reads_the_low_limb(self):
        # k = 32: the top limb holds no bits, every prefix is in ``lo``
        codec = KmerCodec(32)
        s = "ACGT" * 8
        arr = codec.from_strings([s])
        assert arr.hi.tolist() == [0]
        for m in (1, 6, 32):
            assert arr.mmer_prefix(m)[0] == KmerCodec(m).encode(s[:m])[1]

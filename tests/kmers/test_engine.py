import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.merhist import histogram_batch
from repro.kmers.codec import KmerCodec
from repro.kmers.engine import (
    KmerTuples,
    enumerate_canonical_kmers,
    select_canonical_kmers,
)
from repro.seqio.records import ReadBatch
from tests.kmers import reference_engine


def brute_force_kmers(seqs, k, read_ids=None):
    """Reference enumeration: python loop, canonical via codec."""
    codec = KmerCodec(k)
    out = []
    ids = read_ids or list(range(len(seqs)))
    for rid, seq in zip(ids, seqs):
        for i in range(len(seq) - k + 1):
            window = seq[i : i + k]
            if "N" in window:
                continue
            out.append((codec.canonical(window), rid))
    return out


def tuples_as_pairs(tuples: KmerTuples):
    codec = KmerCodec(tuples.k)
    return list(zip(codec.decode_array(tuples.kmers), tuples.read_ids.tolist()))


class TestEnumerationCorrectness:
    @pytest.mark.parametrize("k", [3, 5, 11, 27, 31])
    def test_matches_brute_force_one_limb(self, rng, k):
        seqs = []
        for _ in range(6):
            length = int(rng.integers(k, 3 * k + 10))
            seqs.append("".join(rng.choice(list("ACGT"), size=length)))
        batch = ReadBatch.from_sequences(seqs)
        got = tuples_as_pairs(enumerate_canonical_kmers(batch, k))
        assert got == brute_force_kmers(seqs, k)

    @pytest.mark.parametrize("k", [32, 33, 45, 63])
    def test_matches_brute_force_two_limb(self, rng, k):
        seqs = []
        for _ in range(4):
            length = int(rng.integers(k, 2 * k + 8))
            seqs.append("".join(rng.choice(list("ACGT"), size=length)))
        batch = ReadBatch.from_sequences(seqs)
        got = tuples_as_pairs(enumerate_canonical_kmers(batch, k))
        assert got == brute_force_kmers(seqs, k)

    def test_k32_top_limb_is_empty(self):
        # 32 bases fill the low limb exactly; nothing may carry above it
        batch = ReadBatch.from_sequences(["T" * 40, "G" + "A" * 30 + "C"])
        kmers = enumerate_canonical_kmers(batch, 32).kmers
        assert len(kmers.limbs) == 2
        assert not kmers.hi.any()
        assert kmers.lo.max() >= 2**63  # the leading G sets the top bit

    def test_n_windows_skipped(self):
        batch = ReadBatch.from_sequences(["ACGNACGT"])
        got = tuples_as_pairs(enumerate_canonical_kmers(batch, 3))
        assert got == brute_force_kmers(["ACGNACGT"], 3)
        # windows covering position 3 are absent
        assert len(got) == 3  # ACG + ACG, CGT -> positions 0, 4, 5

    def test_all_n_read(self):
        batch = ReadBatch.from_sequences(["NNNNNN"])
        assert len(enumerate_canonical_kmers(batch, 3)) == 0

    def test_read_shorter_than_k(self):
        batch = ReadBatch.from_sequences(["ACG", "ACGTACGT"])
        tuples = enumerate_canonical_kmers(batch, 5)
        assert set(tuples.read_ids.tolist()) == {1}

    def test_windows_do_not_cross_reads(self):
        # "AC" + "GT" must NOT produce "ACGT"-spanning k-mers
        batch = ReadBatch.from_sequences(["ACAC", "GTGT"])
        got = tuples_as_pairs(enumerate_canonical_kmers(batch, 4))
        assert got == brute_force_kmers(["ACAC", "GTGT"], 4)

    def test_empty_batch(self):
        assert len(enumerate_canonical_kmers(ReadBatch.empty(), 5)) == 0

    def test_read_ids_respected(self):
        batch = ReadBatch.from_sequences(["ACGTA", "ACGTA"], read_ids=[9, 9])
        tuples = enumerate_canonical_kmers(batch, 4)
        assert set(tuples.read_ids.tolist()) == {9}

    def test_canonical_strand_invariance(self):
        from repro.seqio.alphabet import reverse_complement

        seq = "ACCGTAGGTAC"
        fwd = enumerate_canonical_kmers(ReadBatch.from_sequences([seq]), 5)
        rev = enumerate_canonical_kmers(
            ReadBatch.from_sequences([reverse_complement(seq)]), 5
        )
        codec = KmerCodec(5)
        assert sorted(codec.decode_array(fwd.kmers)) == sorted(
            codec.decode_array(rev.kmers)
        )

    def test_deterministic_order(self):
        batch = ReadBatch.from_sequences(["ACGTACG", "TTGGCCA"])
        a = enumerate_canonical_kmers(batch, 4)
        b = enumerate_canonical_kmers(batch, 4)
        assert np.array_equal(a.kmers.lo, b.kmers.lo)
        assert np.array_equal(a.read_ids, b.read_ids)


class TestKmerTuples:
    def test_nbytes_one_limb(self):
        batch = ReadBatch.from_sequences(["ACGTACGTAC"])
        t = enumerate_canonical_kmers(batch, 5)
        assert t.nbytes == 12 * len(t)

    def test_nbytes_two_limb(self):
        batch = ReadBatch.from_sequences(["ACGT" * 20])
        t = enumerate_canonical_kmers(batch, 35)
        assert t.nbytes == 20 * len(t)

    def test_length_mismatch_rejected(self):
        from repro.kmers.codec import KmerArray

        with pytest.raises(ValueError):
            KmerTuples(
                KmerArray(5, np.zeros(3, dtype=np.uint64)),
                np.zeros(2, dtype=np.uint32),
            )

    def test_concatenate_and_slice(self):
        batch = ReadBatch.from_sequences(["ACGTAC", "GGTTCC"])
        t = enumerate_canonical_kmers(batch, 4)
        parts = [t.slice(0, 2), t.slice(2, len(t))]
        merged = KmerTuples.concatenate(parts)
        assert np.array_equal(merged.kmers.lo, t.kmers.lo)
        assert np.array_equal(merged.read_ids, t.read_ids)

    def test_take(self):
        batch = ReadBatch.from_sequences(["ACGTAC"])
        t = enumerate_canonical_kmers(batch, 4)
        sub = t.take(np.array([0, 2]))
        assert len(sub) == 2

    def test_empty(self):
        t = KmerTuples.empty(27)
        assert len(t) == 0
        assert t.k == 27

    @pytest.mark.parametrize("n_dest", [1, 2, 256, 257])
    def test_split_by_destination_matches_one_mask_per_destination(self, n_dest):
        rng = np.random.default_rng(n_dest)
        batch = ReadBatch.from_sequences(
            ["".join(rng.choice(list("ACGT"), 60)) for _ in range(40)]
        )
        t = enumerate_canonical_kmers(batch, 15)
        dest = rng.integers(0, n_dest, size=len(t))
        parts, counts = t.split_by_destination(dest, n_dest)
        assert len(parts) == n_dest
        for d in range(n_dest):
            want = t.take(np.flatnonzero(dest == d))
            assert counts[d] == len(want)
            assert_same_tuples(parts[d], want)

        with pytest.raises(ValueError):
            t.split_by_destination(np.full(len(t), n_dest), n_dest)


#: a read: runs of bases and of N's, from empty to longer than 2k
_read = st.lists(
    st.one_of(st.text("ACGT", min_size=1, max_size=40), st.text("N", min_size=1, max_size=3)),
    max_size=5,
).map("".join)


@st.composite
def _bin_range(draw, m):
    """An empty range, the whole range, a single bin, or any range."""
    n_bins = 4**m
    lo = draw(st.integers(0, n_bins))
    return draw(
        st.sampled_from([
            (lo, lo),
            (0, n_bins),
            (min(lo, n_bins - 1), min(lo, n_bins - 1) + 1),
            tuple(sorted((lo, draw(st.integers(0, n_bins))))),
        ])
    )


class TestWindowKernelAgainstOracle:
    """The prefix-first, doubling kernel emits exactly the tuples of the
    k-step shift loop (``tests/kmers/reference_engine.py``)."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(_read, max_size=6),
        st.sampled_from([15, 27, 31, 32, 33, 63]),
        st.sampled_from([1, 6, 10]),
        st.data(),
    )
    def test_selection_matches_the_shift_loop(self, seqs, k, m, data):
        batch = ReadBatch.from_sequences(seqs, read_ids=range(7, 7 + len(seqs)))
        want = reference_engine.enumerate_canonical_kmers(batch, k)
        assert_same_tuples(enumerate_canonical_kmers(batch, k), want)

        bins = want.kmers.mmer_prefix(m).astype(np.int64)
        lo, hi = data.draw(_bin_range(m))
        kept, kept_bins, n_positions = select_canonical_kmers(batch, k, m, lo, hi)
        in_range = (bins >= lo) & (bins < hi)
        assert_same_tuples(kept, want.take(np.flatnonzero(in_range)))
        assert np.array_equal(kept_bins, bins[in_range])
        assert n_positions == len(want)
        assert np.array_equal(
            histogram_batch(batch, k, m),
            np.bincount(bins, minlength=4**m),
        )

    @pytest.mark.parametrize("k", [1, 2, 15, 27, 31, 32, 33, 63])
    def test_one_read_and_empty_batches(self, rng, k):
        from tests.conftest import random_reads

        for batch in (
            ReadBatch.from_sequences(random_reads(rng, 1, 2 * k + 5, n_prob=0.05)),
            ReadBatch.from_sequences(["ACGT" * 20], read_ids=[2**32 - 1]),
            ReadBatch.from_sequences([""]),
            ReadBatch.empty(),
        ):
            want = reference_engine.enumerate_canonical_kmers(batch, k)
            assert_same_tuples(enumerate_canonical_kmers(batch, k), want)
            kept, _, n_positions = select_canonical_kmers(batch, k, 1, 0, 4)
            assert_same_tuples(kept, want)
            assert n_positions == len(want)


def assert_same_tuples(got: KmerTuples, want: KmerTuples) -> None:
    assert got.k == want.k
    assert len(got.columns) == len(want.columns)
    for a, b in zip(got.columns, want.columns):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)

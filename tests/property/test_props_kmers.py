"""Hypothesis properties of the k-mer machinery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmers.codec import KmerCodec
from repro.kmers.engine import enumerate_canonical_kmers
from repro.kmers.counter import count_canonical_kmers
from repro.seqio.alphabet import reverse_complement
from repro.seqio.records import ReadBatch

dna = st.text(alphabet="ACGT", min_size=0, max_size=60)
dna_with_n = st.text(alphabet="ACGTN", min_size=0, max_size=60)
reads = st.lists(dna_with_n, min_size=0, max_size=8)


@given(dna)
def test_revcomp_involution(seq):
    assert reverse_complement(reverse_complement(seq)) == seq


@given(dna_with_n)
def test_revcomp_length_preserved(seq):
    assert len(reverse_complement(seq)) == len(seq)


@given(st.integers(2, 63), st.data())
def test_codec_roundtrip(k, data):
    seq = data.draw(st.text(alphabet="ACGT", min_size=k, max_size=k))
    codec = KmerCodec(k)
    assert codec.decode(*codec.encode(seq)) == seq


@given(st.integers(2, 63), st.data())
def test_canonical_strand_invariant(k, data):
    seq = data.draw(st.text(alphabet="ACGT", min_size=k, max_size=k))
    codec = KmerCodec(k)
    assert codec.canonical(seq) == codec.canonical(reverse_complement(seq))
    assert codec.canonical(seq) <= min(seq, reverse_complement(seq))
    assert codec.canonical(seq) == min(seq, reverse_complement(seq))


@settings(max_examples=50)
@given(reads, st.integers(2, 11))
def test_enumeration_counts_and_validity(seqs, k):
    batch = ReadBatch.from_sequences(seqs)
    tuples = enumerate_canonical_kmers(batch, k)
    expected = sum(
        sum(
            1
            for i in range(len(s) - k + 1)
            if "N" not in s[i : i + k]
        )
        for s in seqs
    )
    assert len(tuples) == expected
    codec = KmerCodec(k)
    for kmer in codec.decode_array(tuples.kmers):
        assert kmer == codec.canonical(kmer)


@settings(max_examples=40)
@given(reads, st.integers(2, 9))
def test_enumeration_strand_symmetric_multiset(seqs, k):
    batch_fwd = ReadBatch.from_sequences(seqs)
    batch_rev = ReadBatch.from_sequences([reverse_complement(s) for s in seqs])
    a = enumerate_canonical_kmers(batch_fwd, k)
    b = enumerate_canonical_kmers(batch_rev, k)
    assert sorted(a.kmers.lo.tolist()) == sorted(b.kmers.lo.tolist())


@settings(max_examples=40)
@given(reads, st.integers(2, 9))
def test_spectrum_total_matches(seqs, k):
    batch = ReadBatch.from_sequences(seqs)
    spec = count_canonical_kmers(batch, k)
    tuples = enumerate_canonical_kmers(batch, k)
    assert spec.total == len(tuples)
    assert (spec.counts >= 1).all()


@settings(max_examples=30)
@given(reads, st.integers(3, 9), st.integers(1, 4))
def test_mmer_prefix_consistent_with_strings(seqs, k, m):
    if m >= k:
        m = k - 1
    batch = ReadBatch.from_sequences(seqs)
    tuples = enumerate_canonical_kmers(batch, k)
    codec_k = KmerCodec(k)
    codec_m = KmerCodec(m)
    prefixes = tuples.kmers.mmer_prefix(m)
    for kmer_str, pref in zip(codec_k.decode_array(tuples.kmers), prefixes):
        assert int(pref) == codec_m.encode(kmer_str[:m])[1]


#: one k on each side of every limb-layout edge, and the widest k
LIMB_GRID = (15, 27, 31, 32, 33, 63)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(LIMB_GRID),
    st.lists(st.text(alphabet="ACGTN", max_size=90), max_size=5),
)
def test_enumeration_matches_scalar_oracle_across_limbs(k, seqs):
    """Every width runs one vector path; the scalar codec, which works on
    Python integers, is its oracle, position for position and bit for
    bit (so a stray bit above ``2k``, e.g. in k = 32's empty top limb,
    fails)."""
    codec = KmerCodec(k)
    want = [
        (codec.encode(codec.canonical(s[i : i + k])), read)
        for read, s in enumerate(seqs)
        for i in range(len(s) - k + 1)
        if "N" not in s[i : i + k]
    ]
    tuples = enumerate_canonical_kmers(ReadBatch.from_sequences(seqs), k)
    limbs = [limb.tolist() for limb in tuples.kmers.limbs]
    hi_lo = [[0] * len(tuples)] * (2 - len(limbs)) + limbs
    assert list(zip(zip(*hi_lo), tuples.read_ids.tolist())) == want

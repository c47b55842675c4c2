import numpy as np
import pytest

from repro.kmers.codec import KmerCodec
from repro.kmers.engine import enumerate_canonical_kmers
from repro.kmers.minimizers import split_super_kmers
from repro.seqio.records import ReadBatch


def brute_minimizer(seq, k, m):
    """Smallest forward m-mer of each k-mer window (no Ns)."""
    codec = KmerCodec(m)
    out = []
    for i in range(len(seq) - k + 1):
        window = seq[i : i + k]
        if "N" in window:
            continue
        mmers = [
            codec.encode(window[j : j + m])[1] for j in range(k - m + 1)
        ]
        out.append(min(mmers))
    return out


def minimizer_of_each_kmer(batch, k, m):
    """Each valid k-mer's minimizer, read off the super-k-mer runs."""
    sk = split_super_kmers(batch, k, m)
    return np.repeat(sk.minimizer, sk.n_kmers)


class TestMinimizers:
    @pytest.mark.parametrize("k,m", [(5, 3), (9, 4), (15, 7)])
    def test_matches_brute_force(self, rng, k, m):
        from tests.conftest import random_reads

        seqs = random_reads(rng, 5, 3 * k)
        batch = ReadBatch.from_sequences(seqs)
        got = minimizer_of_each_kmer(batch, k, m).tolist()
        want = [v for s in seqs for v in brute_minimizer(s, k, m)]
        assert got == want

    def test_respects_n_masking(self):
        batch = ReadBatch.from_sequences(["ACGTNACGTACG"])
        got = minimizer_of_each_kmer(batch, 4, 2)
        assert len(got) == len(brute_minimizer("ACGTNACGTACG", 4, 2))

    def test_empty(self):
        assert len(minimizer_of_each_kmer(ReadBatch.empty(), 5, 3)) == 0


class TestSuperKmers:
    def test_kmers_partitioned_exactly(self, rng):
        from tests.conftest import random_reads

        seqs = random_reads(rng, 8, 50, n_prob=0.02)
        batch = ReadBatch.from_sequences(seqs)
        k, m = 11, 5
        sk = split_super_kmers(batch, k, m)
        direct = enumerate_canonical_kmers(batch, k)
        assert sk.total_kmers == len(direct)

    def test_runs_share_minimizer(self, rng):
        from tests.conftest import random_reads

        seqs = random_reads(rng, 5, 40)
        batch = ReadBatch.from_sequences(seqs)
        k, m = 9, 4
        sk = split_super_kmers(batch, k, m)
        mins = [v for s in seqs for v in brute_minimizer(s, k, m)]
        # walk runs: consecutive k-mer minimizers within a run are equal
        pos = 0
        for i in range(len(sk)):
            run = mins[pos : pos + int(sk.n_kmers[i])]
            assert set(run) == {int(sk.minimizer[i])}
            pos += int(sk.n_kmers[i])
        assert pos == len(mins)

    def test_runs_are_maximal(self, rng):
        from tests.conftest import random_reads

        seqs = random_reads(rng, 5, 40)
        batch = ReadBatch.from_sequences(seqs)
        sk = split_super_kmers(batch, 9, 4)
        # adjacent runs within the same read must have different minimizers
        for i in range(1, len(sk)):
            if sk.read_index[i] == sk.read_index[i - 1]:
                contiguous = (
                    sk.start[i] == sk.start[i - 1] + sk.n_kmers[i - 1]
                )
                if contiguous:
                    assert sk.minimizer[i] != sk.minimizer[i - 1]

    def test_total_bases_accounting(self):
        batch = ReadBatch.from_sequences(["ACGTACGTAC"])
        k, m = 5, 3
        sk = split_super_kmers(batch, k, m)
        assert sk.total_bases == int((sk.n_kmers + k - 1).sum())
        # super-k-mers compact: total bases < raw k*count
        assert sk.total_bases <= sk.total_kmers * k

    def test_bins_in_range(self, rng):
        from tests.conftest import random_reads

        batch = ReadBatch.from_sequences(random_reads(rng, 4, 30))
        sk = split_super_kmers(batch, 7, 3)
        bins = sk.bin_of(16)
        assert bins.min() >= 0
        assert bins.max() < 16

    def test_empty_batch(self):
        sk = split_super_kmers(ReadBatch.empty(), 7, 3)
        assert len(sk) == 0
        assert sk.total_kmers == 0

import numpy as np
import pytest

from repro.index.merhist import MerHist, histogram_batch
from repro.seqio.records import ReadBatch
from tests.kmers.reference_engine import enumerate_canonical_kmers


@pytest.fixture()
def batch(rng):
    from tests.conftest import random_reads

    return ReadBatch.from_sequences(random_reads(rng, 15, 35, n_prob=0.02))


class TestHistogramBatch:
    def test_total_equals_tuple_count(self, batch):
        hist = histogram_batch(batch, k=9, m=4)
        tuples = enumerate_canonical_kmers(batch, 9)
        assert hist.sum() == len(tuples)

    def test_bins_match_prefixes(self, batch):
        k, m = 9, 4
        hist = histogram_batch(batch, k, m)
        tuples = enumerate_canonical_kmers(batch, k)
        prefixes = tuples.kmers.mmer_prefix(m).astype(np.int64)
        want = np.bincount(prefixes, minlength=4**m)
        assert np.array_equal(hist, want)

    @pytest.mark.parametrize("k,m", [(9, 4), (27, 6), (63, 10)])
    def test_large_batch_matches_oracle(self, rng, k, m):
        # more reads than the 512-read windows the histogram once took,
        # with N's and reads shorter than k among them
        from tests.conftest import random_reads

        reads = random_reads(rng, 1031, 70, n_prob=0.02) + ["ACGT", "N" * 80]
        big = ReadBatch.from_sequences(reads)
        prefixes = enumerate_canonical_kmers(big, k).kmers.mmer_prefix(m)
        want = np.bincount(prefixes.astype(np.int64), minlength=4**m)
        assert np.array_equal(histogram_batch(big, k, m), want)

    def test_empty_batch(self):
        hist = histogram_batch(ReadBatch.empty(), 9, 4)
        assert hist.sum() == 0
        assert len(hist) == 4**4


def merhist_of(batch, k, m):
    return MerHist(k=k, m=m, counts=histogram_batch(batch, k, m).astype(np.uint32))


class TestMerHist:
    def test_bin_count(self):
        h = MerHist(k=9, m=4, counts=np.zeros(256, dtype=np.uint32))
        assert h.n_bins == 256
        assert h.nbytes == 1024

    def test_wrong_bin_count_rejected(self):
        with pytest.raises(ValueError):
            MerHist(k=9, m=4, counts=np.zeros(100, dtype=np.uint32))

    def test_m_must_be_less_than_k(self):
        with pytest.raises(ValueError):
            MerHist(k=3, m=5, counts=np.zeros(4**5, dtype=np.uint32))

    def test_cumulative(self, batch):
        h = merhist_of(batch, 9, 4)
        cum = h.cumulative()
        assert cum[0] == 0
        assert cum[-1] == h.total_tuples
        assert np.all(np.diff(cum) >= 0)

    def test_count_in_bin_range(self, batch):
        h = merhist_of(batch, 9, 4)
        total = h.count_in_bin_range(0, h.n_bins)
        assert total == h.total_tuples
        mid = h.n_bins // 2
        assert (
            h.count_in_bin_range(0, mid) + h.count_in_bin_range(mid, h.n_bins)
            == total
        )

    def test_save_load_roundtrip(self, batch, tmp_path):
        h = merhist_of(batch, 9, 4)
        path = tmp_path / "merhist.bin"
        h.save(path)
        back = MerHist.load(path)
        assert back.k == 9
        assert back.m == 4
        assert np.array_equal(back.counts, h.counts)

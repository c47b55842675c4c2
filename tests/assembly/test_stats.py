import pytest

from repro.assembly.stats import contig_stats, n_statistic


class TestNStatistic:
    def test_known_n50(self):
        assert n_statistic([10, 8, 6, 4, 2], 0.5) == 8

    def test_single_contig(self):
        assert n_statistic([100], 0.5) == 100

    def test_n90_smaller_than_n50(self):
        lengths = [50, 40, 30, 20, 10, 5, 5, 5]
        assert n_statistic(lengths, 0.9) <= n_statistic(lengths, 0.5)

    def test_all_equal(self):
        assert n_statistic([7, 7, 7, 7], 0.5) == 7

    def test_empty(self):
        assert n_statistic([], 0.5) == 0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            n_statistic([1], 0.0)
        with pytest.raises(ValueError):
            n_statistic([1], 1.5)

    def test_exactly_half_boundary(self):
        # total 20, target 10: cumulative [10, 20] -> first >= 10 is index 0
        assert n_statistic([10, 10], 0.5) == 10


class TestContigStats:
    def test_basic(self):
        contigs = ["A" * 100, "C" * 50, "G" * 50]
        s = contig_stats(contigs)
        assert s.n_contigs == 3
        assert s.total_bp == 200
        assert s.max_bp == 100
        assert s.n50 == 100
        assert s.mean_bp == pytest.approx(200 / 3)
        assert s.total_mbp == pytest.approx(0.0002)

    def test_empty(self):
        s = contig_stats([])
        assert s.n_contigs == 0
        assert s.n50 == 0

    def test_as_row(self):
        row = contig_stats(["A" * 10]).as_row()
        assert row[0] == 1
        assert row[2] == 10



import pytest

from repro.kmers.codec import MAX_K_ONE_LIMB
from repro.perf.calibrate import (
    SubstrateRates,
    measure_kmer_rate,
    measure_merge_rate,
    measure_sort_rate,
    measure_uf_rate,
)


class TestMeasurements:
    def test_kmer_rate_positive(self):
        rate = measure_kmer_rate(n_bases=30_000, repeats=1)
        assert rate > 1e4

    def test_sort_rate_positive(self):
        rate = measure_sort_rate(n_tuples=20_000, repeats=1)
        assert rate > 1e4

    def test_sort_rate_at_the_widest_one_limb_k(self):
        rate = measure_sort_rate(n_tuples=1_000, k=MAX_K_ONE_LIMB, repeats=1)
        assert rate > 0

    @pytest.mark.parametrize("k", [32, 63])
    def test_sort_rate_rejects_two_limb_k(self, k):
        # the synthetic keys are drawn below 1 << (2 * k), which wraps a
        # uint64 limb once k > 31
        with pytest.raises(ValueError, match="k must be in"):
            measure_sort_rate(n_tuples=1_000, k=k, repeats=1)

    def test_uf_rate_positive(self):
        rate = measure_uf_rate(n_vertices=5_000, n_edges=10_000, repeats=1)
        assert rate > 1e3

    def test_merge_rate_positive(self):
        rate = measure_merge_rate(n_vertices=20_000, repeats=1)
        assert rate > 1e3


class TestSubstrateRates:
    def test_as_dict_keys_match_machine_fields(self):
        from repro.runtime.machines import EDISON

        rates = SubstrateRates(
            kmer_rate=1.0, sort_rate=2.0, uf_rate=3.0, merge_rate=4.0
        )
        for key in rates.as_dict():
            assert hasattr(EDISON, key), key

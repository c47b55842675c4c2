import tracemalloc

import numpy as np
import pytest

from repro.kmers.codec import KmerArray
from repro.kmers.engine import KmerTuples, enumerate_canonical_kmers
from repro.runtime.buffers import HeapBufferPool
from repro.sort.radix import RADIX_BUCKETS, radix_passes_for, radix_sort_block, radix_sort_tuples
from repro.sort.validate import is_sorted_kmers
from tests.sort.reference_sort import counting_sort_by_digit, verify_sort


def make_tuples(rng, n, k=27):
    if k <= 31:
        lo = rng.integers(0, 1 << (2 * k), size=n, dtype=np.uint64)
        kmers = KmerArray(k, lo)
    else:
        lo = rng.integers(0, 2**63, size=n, dtype=np.uint64)
        hi = rng.integers(0, 1 << (2 * k - 64), size=n, dtype=np.uint64)
        kmers = KmerArray(k, (hi, lo))
    ids = rng.integers(0, n, size=n, dtype=np.uint32)
    return KmerTuples(kmers, ids)


class TestRadixPassesFor:
    def test_paper_pass_counts(self):
        assert radix_passes_for(27) == 8
        assert radix_passes_for(31) == 8
        assert radix_passes_for(32) == 16
        assert radix_passes_for(63) == 16


class TestCountingSort:
    def test_sorted_and_stable(self, rng):
        digits = rng.integers(0, RADIX_BUCKETS, size=500).astype(np.uint8)
        order = counting_sort_by_digit(digits)
        out = digits[order]
        assert np.all(out[:-1] <= out[1:])
        # stability: equal digits keep original relative order
        for d in np.unique(digits):
            positions = order[out == d]
            assert np.all(np.diff(positions) > 0)

    @pytest.mark.parametrize(
        "digits",
        [
            np.random.default_rng(3).integers(0, RADIX_BUCKETS, size=4000),
            np.full(300, 17),
            np.array([9, 200, 9, 9, 200, 0, 255, 0]),
            np.array([], dtype=np.int64),
            np.array([42]),
        ],
        ids=["random", "all-equal", "few-buckets", "empty", "singleton"],
    )
    def test_equals_production_digit_pass(self, digits):
        """The reference and the kernel ``radix_sort_tuples`` runs yield
        the same permutation, not merely the same sorted column."""
        digits = digits.astype(np.uint8)
        assert np.array_equal(
            counting_sort_by_digit(digits), np.argsort(digits, kind="stable")
        )


class TestRadixSort:
    @pytest.mark.parametrize("k", [27, 31])
    def test_one_limb_sorted_permutation(self, rng, k):
        tuples = make_tuples(rng, 2000, k)
        out, stats = radix_sort_tuples(tuples)
        verify_sort(tuples, out)
        assert stats.n_tuples == 2000
        assert stats.passes_nominal == 8

    @pytest.mark.parametrize("k", [35, 63])
    def test_two_limb_sorted_permutation(self, rng, k):
        tuples = make_tuples(rng, 1500, k)
        out, stats = radix_sort_tuples(tuples)
        verify_sort(tuples, out)
        assert stats.passes_nominal == 16

    def test_matches_numpy_reference(self, rng):
        tuples = make_tuples(rng, 1000, 27)
        out, _ = radix_sort_tuples(tuples)
        assert np.array_equal(out.kmers.lo, np.sort(tuples.kmers.lo))

    def test_stability_on_payload(self):
        # equal keys: payload order must be preserved
        lo = np.array([5, 5, 5, 2, 2], dtype=np.uint64)
        ids = np.array([10, 11, 12, 20, 21], dtype=np.uint32)
        tuples = KmerTuples(KmerArray(5, lo), ids)
        out, _ = radix_sort_tuples(tuples)
        assert out.read_ids.tolist() == [20, 21, 10, 11, 12]

    def test_skip_constant_digit_optimization(self, rng):
        # keys confined to one byte: 7 of 8 passes skippable
        lo = rng.integers(0, 256, size=300, dtype=np.uint64)
        tuples = KmerTuples(
            KmerArray(27, lo), np.arange(300, dtype=np.uint32)
        )
        out, stats = radix_sort_tuples(tuples, skip_constant=True)
        assert is_sorted_kmers(out.kmers)
        assert stats.passes_skipped >= 7

    def test_no_skip_runs_all_passes(self, rng):
        tuples = make_tuples(rng, 300, 27)
        _, stats = radix_sort_tuples(tuples, skip_constant=False)
        assert stats.passes_executed == 8
        assert stats.passes_skipped == 0

    def test_empty_and_singleton(self):
        empty = KmerTuples.empty(27)
        out, stats = radix_sort_tuples(empty)
        assert len(out) == 0
        single = KmerTuples(
            KmerArray(27, np.array([7], dtype=np.uint64)),
            np.array([1], dtype=np.uint32),
        )
        out, _ = radix_sort_tuples(single)
        assert out.kmers.lo.tolist() == [7]

    def test_real_enumeration_sorts(self, tiny_hg_batch):
        tuples = enumerate_canonical_kmers(tiny_hg_batch, 27)
        out, _ = radix_sort_tuples(tuples)
        verify_sort(tuples, out)

    def test_input_not_mutated(self, rng):
        tuples = make_tuples(rng, 100, 27)
        before = tuples.kmers.lo.copy()
        radix_sort_tuples(tuples)
        assert np.array_equal(tuples.kmers.lo, before)

    @pytest.mark.parametrize("k", [27, 63])
    @pytest.mark.parametrize("skip_constant", [True, False])
    def test_equals_counting_sort_composition(self, rng, k, skip_constant):
        """Production output, ids included, equals an LSD sort composed
        from the paper-faithful :func:`counting_sort_by_digit` passes."""
        tuples = make_tuples(rng, 3000, k)
        tuples.read_ids[:] = rng.integers(0, 40, size=3000)  # duplicate payloads
        limbs = tuples.kmers.limbs[::-1]  # least significant first
        order = np.arange(len(tuples))
        for limb in limbs:
            limb[::3] = limb[0]  # duplicate keys
            for shift in range(0, 64, 8):
                digit = ((limb[order] >> np.uint64(shift)) & np.uint64(0xFF)).astype(np.uint8)
                order = order[counting_sort_by_digit(digit)]
        out, _ = radix_sort_tuples(tuples, skip_constant=skip_constant)
        assert np.array_equal(out.read_ids, tuples.read_ids[order])
        for limb, sorted_limb in zip(limbs, out.kmers.limbs[::-1]):
            assert np.array_equal(sorted_limb, limb[order])

    def test_stats_merge(self, rng):
        a = make_tuples(rng, 50, 27)
        _, s1 = radix_sort_tuples(a)
        _, s2 = radix_sort_tuples(make_tuples(rng, 70, 27))
        total = s1.merge(s2)
        assert total.n_tuples == 120


class TestRadixSortBlock:
    @pytest.mark.parametrize("k", [27, 63])
    def test_transient_peak_is_24_bytes_per_tuple(self, rng, k):
        """Scratch of the block sort: the permutation, one pass's order
        and their composition — 24 bytes per tuple, whatever the limb
        count — plus 64 KiB of slack for NumPy's small temporaries."""
        n = 100_000
        block = HeapBufferPool().allocate(k, n)
        block.write(0, make_tuples(rng, n, k))
        edges = np.array([0, 60, 130, 256])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            radix_sort_block(block, n, 4, edges)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= 24 * n + 64 * 1024

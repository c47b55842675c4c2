import numpy as np
import pytest

from repro.kmers.codec import KmerArray, KmerCodec
from repro.kmers.engine import KmerTuples
from repro.sort.validate import is_sorted_kmers
from tests.sort.reference_sort import verify_sort


def _tuples(lo, ids, k=5):
    return KmerTuples(
        KmerArray(k, np.asarray(lo, dtype=np.uint64)),
        np.asarray(ids, dtype=np.uint32),
    )


class TestIsSorted:
    def test_sorted(self):
        assert is_sorted_kmers(KmerArray(5, np.array([1, 2, 2, 9], dtype=np.uint64)))

    def test_unsorted(self):
        assert not is_sorted_kmers(KmerArray(5, np.array([3, 1], dtype=np.uint64)))

    def test_two_limb_hi_priority(self):
        arr = KmerCodec(40).array([(1, 9), (2, 0)])
        assert is_sorted_kmers(arr)
        arr2 = KmerCodec(40).array([(2, 0), (1, 9)])
        assert not is_sorted_kmers(arr2)

    def test_trivial(self):
        assert is_sorted_kmers(KmerArray.empty(5))
        assert is_sorted_kmers(KmerArray(5, np.array([3], dtype=np.uint64)))


class TestVerifySort:
    def test_accepts_valid(self):
        before = _tuples([3, 1, 2], [0, 1, 2])
        after = _tuples([1, 2, 3], [1, 2, 0])
        verify_sort(before, after)

    def test_rejects_unsorted(self):
        before = _tuples([3, 1], [0, 1])
        after = _tuples([3, 1], [0, 1])
        with pytest.raises(AssertionError, match="not sorted"):
            verify_sort(before, after)

    def test_rejects_non_permutation(self):
        before = _tuples([3, 1], [0, 1])
        after = _tuples([1, 1], [1, 1])
        with pytest.raises(AssertionError, match="permutation"):
            verify_sort(before, after)

    def test_rejects_payload_swap(self):
        # same sorted keys, but payloads swapped between distinct keys
        before = _tuples([1, 2], [7, 8])
        after = _tuples([1, 2], [8, 7])
        with pytest.raises(AssertionError, match="permutation"):
            verify_sort(before, after)

    def test_rejects_length_change(self):
        with pytest.raises(AssertionError, match="count"):
            verify_sort(_tuples([1, 2], [0, 1]), _tuples([1], [0]))

    def test_empty_ok(self):
        verify_sort(KmerTuples.empty(5), KmerTuples.empty(5))

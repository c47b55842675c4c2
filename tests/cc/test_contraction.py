import numpy as np
import pytest

from repro.cc.contraction import merge_component_arrays_contracted, nontrivial_pairs
from repro.cc.dsf import DisjointSetForest
from repro.cc.mergecc import merge_component_arrays


def forests_from_split_edges(n, edges, n_tasks, rng=None):
    chunks = [edges[i::n_tasks] for i in range(n_tasks)]
    parents = []
    for chunk in chunks:
        f = DisjointSetForest(n)
        if len(chunk):
            us, vs = zip(*chunk)
            f.process_edges(np.array(us), np.array(vs))
        parents.append(f.parent)
    return parents


class TestNontrivialPairs:
    def test_identity_array_empty(self):
        us, vs = nontrivial_pairs(np.arange(10))
        assert len(us) == 0

    def test_pairs_reconstruct_forest(self):
        f = DisjointSetForest(8)
        f.process_edges(np.array([0, 4]), np.array([1, 5]))
        us, vs = nontrivial_pairs(f.parent)
        g = DisjointSetForest(8)
        g.process_edges(us, vs)
        assert np.array_equal(g.roots(), f.roots())


class TestContractedMerge:
    @pytest.mark.parametrize("n_tasks", [1, 2, 3, 5, 8])
    def test_same_partition_as_baseline(self, rng, n_tasks):
        n = 60
        edges = [tuple(e) for e in rng.integers(0, n, size=(90, 2))]
        parents = forests_from_split_edges(n, edges, n_tasks)
        baseline, _ = merge_component_arrays(parents)
        contracted, _ = merge_component_arrays_contracted(parents)
        fa = DisjointSetForest.from_parent_array(baseline).roots()
        fb = DisjointSetForest.from_parent_array(contracted).roots()
        assert np.array_equal(
            fa[:, None] == fa[None, :], fb[:, None] == fb[None, :]
        )

    def test_byte_savings_for_sparse_forests(self, rng):
        """Sparse local knowledge (the multi-task regime): the contracted
        exchange moves fewer bytes than 4R per message."""
        n = 1000
        edges = [tuple(e) for e in rng.integers(0, n, size=(60, 2))]
        parents = forests_from_split_edges(n, edges, 8)
        _, stats = merge_component_arrays_contracted(parents)
        assert stats.bytes_communicated < stats.baseline_bytes
        assert stats.compression_ratio < 0.5

    def test_no_savings_for_dense_forests(self, rng):
        """Fully-merged forests: nearly all entries non-trivial, 8-byte
        pairs cost more than the 4-byte array — the documented taper."""
        n = 100
        edges = [(i, i + 1) for i in range(n - 1)]
        parents = forests_from_split_edges(n, edges, 2)
        # give both tasks the full chain so every vertex is non-trivial
        f = DisjointSetForest(n)
        us, vs = zip(*edges)
        f.process_edges(np.array(us), np.array(vs))
        _, stats = merge_component_arrays_contracted([f.parent, f.parent.copy()])
        assert stats.compression_ratio > 1.0

    def test_stats_rounds(self, rng):
        n = 40
        parents = [DisjointSetForest(n).parent for _ in range(8)]
        _, stats = merge_component_arrays_contracted(parents)
        assert stats.n_rounds == 3
        assert stats.bytes_communicated == 0  # all-identity arrays
        assert len(stats.pairs_per_round) == 3

    def test_single_task(self):
        f = DisjointSetForest(5)
        merged, stats = merge_component_arrays_contracted([f.parent])
        assert np.array_equal(merged, f.parent)
        assert stats.n_rounds == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            merge_component_arrays_contracted([np.arange(3), np.arange(4)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_component_arrays_contracted([])

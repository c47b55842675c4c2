import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.dsf import DisjointSetForest
from tests.cc.reference_dsf import ReferenceForest


def assert_flat_max_roots(parent):
    """Every entry points straight at its component's maximum vertex."""
    assert np.array_equal(parent[parent], parent)
    top = np.zeros(len(parent), dtype=np.int64)
    np.maximum.at(top, parent, np.arange(len(parent)))
    assert np.array_equal(top[parent], parent)


class TestBasicOps:
    def test_initial_singletons(self):
        f = DisjointSetForest(5)
        assert f.n_components() == 5
        assert np.array_equal(f.roots(), np.arange(5))

    def test_union_by_index_lower_under_higher(self):
        f = ReferenceForest(4)
        survivor = f.union(1, 3)
        assert survivor == 3
        assert f.parent[1] == 3
        assert f.find(1) == 3

    def test_union_same_root_noop(self):
        f = ReferenceForest(3)
        assert f.union(2, 2) == 2
        assert f.n_components() == 3

    def test_connected(self):
        f = DisjointSetForest(4)
        f.process_edges(np.array([0]), np.array([1]))
        assert f.connected(0, 1)
        assert not f.connected(0, 2)

    def test_zero_vertices(self):
        f = DisjointSetForest(0)
        assert f.n_components() == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DisjointSetForest(-1)


class TestPathSplitting:
    def test_find_shortens_paths(self):
        f = ReferenceForest(5)
        # hand-build a chain 0 -> 1 -> 2 -> 3 -> 4
        f.parent[:] = [1, 2, 3, 4, 4]
        root = f.find(0)
        assert root == 4
        # path splitting: 0 and 1 now point at their grandparents
        assert f.parent[0] >= 2
        assert f.parent[1] >= 3


class TestProcessEdges:
    def test_matches_reference_components(self, rng):
        n = 60
        edges = rng.integers(0, n, size=(120, 2))
        f = DisjointSetForest(n)
        f.process_edges(edges[:, 0], edges[:, 1])

        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(map(tuple, edges))
        ref = {frozenset(c) for c in nx.connected_components(g)}
        got = {}
        for v, r in enumerate(f.roots().tolist()):
            got.setdefault(r, set()).add(v)
        assert {frozenset(c) for c in got.values()} == ref

    def test_converges_in_two_iterations_uncontended(self):
        f = DisjointSetForest(10)
        us = np.arange(9)
        vs = np.arange(1, 10)
        unions, _, rounds = f.process_edges(us, vs)
        assert unions == 9
        assert rounds <= 2

    def test_union_count(self):
        f = DisjointSetForest(4)
        unions, _, _ = f.process_edges(
            np.array([0, 1, 0]), np.array([1, 2, 2])
        )
        assert unions == 2  # third edge redundant

    def test_mismatched_arrays_rejected(self):
        f = DisjointSetForest(4)
        with pytest.raises(ValueError):
            f.process_edges(np.array([0, 1]), np.array([1]))

    def test_empty_edge_list(self):
        f = DisjointSetForest(4)
        assert f.process_edges(np.array([]), np.array([])) == (0, 0, 0)

    def test_no_cycles_created(self, rng):
        """Union-by-index guarantees acyclic parent chains."""
        n = 40
        f = DisjointSetForest(n)
        edges = rng.integers(0, n, size=(100, 2))
        f.process_edges(edges[:, 0], edges[:, 1])
        # every chain must terminate within n steps
        for v in range(n):
            x, steps = v, 0
            while f.parent[x] != x:
                x = int(f.parent[x])
                steps += 1
                assert steps <= n, "cycle detected"

    def test_forest_is_flat_after_call(self, rng):
        """The parent array comes back canonical: one pointer per vertex,
        straight to its component's maximum — independent of edge order."""
        n = 50
        edges = rng.integers(0, n, size=(60, 2))
        f = DisjointSetForest(n)
        for blk in np.array_split(np.arange(len(edges)), 3):
            f.process_edges(edges[blk, 0], edges[blk, 1])
            assert_flat_max_roots(f.parent)
        g = DisjointSetForest(n)
        g.process_edges(edges[::-1, 1], edges[::-1, 0])
        assert np.array_equal(f.parent, g.parent)

    def test_non_flat_start_is_flattened(self):
        f = DisjointSetForest.wrap(np.array([1, 2, 3, 3, 4], dtype=np.int64))
        assert f.process_edges(np.array([4]), np.array([4])) == (0, 2, 0)
        assert f.parent.tolist() == [3, 3, 3, 3, 4]

    def test_writes_through_wrapped_array(self):
        parent = np.arange(4, dtype=np.int64)
        DisjointSetForest.wrap(parent).process_edges(np.array([0]), np.array([2]))
        assert parent.tolist() == [2, 1, 2, 3]

    @pytest.mark.parametrize(
        "cycle", [[1, 0], [1, 2, 0], [1, 2, 3, 0], [0, 2, 1, 3]]
    )
    def test_wrapped_cycle_raises(self, cycle):
        f = DisjointSetForest.wrap(np.array(cycle, dtype=np.int64))
        with pytest.raises(ValueError, match="cycle"):
            f.process_edges(np.array([0]), np.array([len(cycle) - 1]))
        with pytest.raises(ValueError, match="cycle"):
            f.find_many(np.array([0]))


def edge_batches(max_n=40, max_edges=60, max_batches=4):
    """``(n, prefix, batches)``: a vertex count in 0..max_n, edges the
    reference folds first (a non-flat starting forest), then edge batches
    for both forests — self-loops, duplicates and empty batches included."""

    def for_n(n):
        if n == 0:
            return st.just((0, [], [[]]))
        edges = st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_edges,
        )
        return st.tuples(
            st.just(n), edges, st.lists(edges, min_size=1, max_size=max_batches)
        )

    return st.integers(0, max_n).flatmap(for_n)


def as_arrays(edges):
    if not edges:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    us, vs = zip(*edges)
    return np.array(us, np.int64), np.array(vs, np.int64)


class TestAgainstAlgorithm1:
    """The vectorised kernel against the scalar per-edge oracle."""

    @settings(max_examples=150, deadline=None)
    @given(edge_batches())
    def test_roots_and_unions_equal_reference(self, case):
        n, prefix, batches = case
        ref = ReferenceForest(n)
        ref.process_edges(*as_arrays(prefix))
        # start from the reference's own, generally non-flat, parent array
        got = DisjointSetForest.wrap(ref.parent.copy())
        for batch in batches:
            us, vs = as_arrays(batch)
            ref_unions, _, _ = ref.process_edges(us, vs)
            unions, _, _ = got.process_edges(us, vs)
            assert unions == ref_unions
            assert np.array_equal(got.roots(), ref.roots())
            assert_flat_max_roots(got.parent)

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_forests(self, n):
        f = DisjointSetForest(n)
        us = np.zeros(n, np.int64)
        assert f.process_edges(us, us) == (0, 0, 0)
        assert f.parent.tolist() == list(range(n))

    def test_merge_kernel_equals_reference(self, rng):
        """MergeCC's absorb step yields the reference's roots."""
        n = 80
        a_edges = rng.integers(0, n, size=(50, 2))
        b_edges = rng.integers(0, n, size=(50, 2))
        sender = ReferenceForest(n)
        sender.process_edges(b_edges[:, 0], b_edges[:, 1])
        receiver = ReferenceForest(n)
        receiver.process_edges(a_edges[:, 0], a_edges[:, 1])
        got = DisjointSetForest.wrap(receiver.parent.copy())
        nontrivial = np.flatnonzero(sender.parent != np.arange(n))
        ref_unions, _, _ = receiver.process_edges(
            nontrivial, sender.parent[nontrivial]
        )
        assert got.absorb_parent_array(sender.parent) == ref_unions
        assert np.array_equal(got.roots(), receiver.roots())


class TestVectorizedFind:
    def test_find_many_matches_scalar(self, rng):
        n = 50
        edges = rng.integers(0, n, size=(80, 2))
        ref = ReferenceForest(n)
        ref.process_edges(edges[:, 0], edges[:, 1])
        f = DisjointSetForest.wrap(ref.parent.copy())
        xs = np.arange(n)
        vec = f.find_many(xs)
        scalar = np.array([ref.find(int(v)) for v in xs])
        assert np.array_equal(vec, scalar)

    def test_find_many_compress(self):
        f = DisjointSetForest(4)
        f.parent[:] = [1, 2, 3, 3]
        roots = f.find_many(np.array([0]), compress=True)
        assert roots[0] == 3
        assert f.parent[0] == 3

    def test_roots_idempotent(self, rng):
        n = 30
        f = DisjointSetForest(n)
        edges = rng.integers(0, n, size=(40, 2))
        f.process_edges(edges[:, 0], edges[:, 1])
        r1 = f.roots()
        assert np.array_equal(f.parent[r1], r1)  # roots are self-parents


class TestParentArrayAdoption:
    def test_roundtrip(self):
        f = DisjointSetForest(5)
        f.process_edges(np.array([0, 2]), np.array([1, 3]))
        g = DisjointSetForest.from_parent_array(f.parent)
        assert g.n_components() == f.n_components()

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            DisjointSetForest.from_parent_array(np.array([1, 0], dtype=np.int64))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            DisjointSetForest.from_parent_array(np.array([5], dtype=np.int64))

    def test_absorb_parent_array(self):
        a = DisjointSetForest(6)
        a.process_edges(np.array([0]), np.array([1]))
        b = DisjointSetForest(6)
        b.process_edges(np.array([1, 4]), np.array([2, 5]))
        unions = a.absorb_parent_array(b.parent)
        assert unions >= 2
        assert a.connected(0, 2)
        assert a.connected(4, 5)
        assert not a.connected(0, 4)

    def test_absorb_wrong_length_rejected(self):
        a = DisjointSetForest(3)
        with pytest.raises(ValueError):
            a.absorb_parent_array(np.arange(4))


class TestAdversarialInterleaving:
    def test_interleaved_blocks_same_partition(self, rng):
        """Simulate 'threads' processing edge blocks in shuffled order: the
        final partition must not depend on the interleaving (the property
        Algorithm 1's deferred verification protects on real hardware)."""
        n = 50
        edges = rng.integers(0, n, size=(200, 2))
        ref = DisjointSetForest(n)
        ref.process_edges(edges[:, 0], edges[:, 1])
        ref_labels = ref.roots()

        for trial in range(5):
            order = rng.permutation(len(edges))
            shuffled = edges[order]
            f = DisjointSetForest(n)
            for blk in np.array_split(np.arange(len(edges)), 7):
                f.process_edges(shuffled[blk, 0], shuffled[blk, 1])
            # union-by-index: the labels themselves, not just the
            # co-membership, are independent of the interleaving
            assert np.array_equal(f.roots(), ref_labels)

import numpy as np
import pytest

from repro.cc.components import compact_labels, component_sizes, summarize_components
from repro.cc.dsf import DisjointSetForest
from repro.kmers.filter import FrequencyFilter
from repro.seqio.records import ReadBatch
from tests.cc.reference_dsf import (
    build_read_graph,
    partition_as_frozensets,
    reference_components_networkx,
)


def forest_parent(n, edges):
    f = DisjointSetForest(n)
    if edges:
        us, vs = zip(*edges)
        f.process_edges(np.array(us), np.array(vs))
    return f.parent


class TestCompactLabels:
    def test_dense_labels(self):
        parent = forest_parent(6, [(0, 1), (3, 4)])
        labels = compact_labels(parent)
        assert labels.min() == 0
        assert labels.max() == 3  # {0,1}, {2}, {3,4}, {5}
        assert labels[0] == labels[1]
        assert labels[3] == labels[4]
        assert labels[0] != labels[3]

    def test_canonical_form(self):
        # two different parent arrays describing the same partition
        a = forest_parent(4, [(0, 1)])
        b = forest_parent(4, [(1, 0)])
        assert np.array_equal(compact_labels(a), compact_labels(b))


class TestComponentSizes:
    def test_descending(self):
        parent = forest_parent(7, [(0, 1), (0, 2), (4, 5)])
        assert component_sizes(parent).tolist() == [3, 2, 1, 1]

    def test_summary(self):
        parent = forest_parent(10, [(0, i) for i in range(1, 8)])
        s = summarize_components(parent)
        assert s.n_reads == 10
        assert s.n_components == 3
        assert s.largest_component_size == 8
        assert s.largest_component_percent == pytest.approx(80.0)
        assert s.singleton_components == 2
        assert s.size_histogram == {8: 1, 1: 2}

    def test_empty(self):
        s = summarize_components(np.empty(0, dtype=np.int64))
        assert s.n_reads == 0
        assert s.largest_component_fraction == 0.0


class TestReadGraphOracle:
    def test_two_clusters(self):
        # reads 0,1 share CCCC; read 2 (GTGT...) shares no canonical 4-mer
        # with either (note: canonical forms matter — e.g. TTTT would
        # canonicalize to AAAA and join read 0)
        batch = ReadBatch.from_sequences(
            ["AAAACCCC", "CCCCGGGG", "GTGTGTGT"], read_ids=[0, 1, 2]
        )
        comps = reference_components_networkx(batch, 4)
        assert comps == [frozenset({0, 1}), frozenset({2})]
        graph = build_read_graph(batch, 4)
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(0, 2)

    def test_canonical_join_via_revcomp_kmer(self):
        # TTTT canonicalizes to AAAA, joining a read containing AAAA
        batch = ReadBatch.from_sequences(
            ["AAAAC", "GTTTT"], read_ids=[0, 1]
        )
        comps = reference_components_networkx(batch, 4)
        assert comps == [frozenset({0, 1})]

    def test_strand_symmetric(self):
        from repro.seqio.alphabet import reverse_complement

        seq = "ACGGTTACGGTA"
        batch = ReadBatch.from_sequences(
            [seq, reverse_complement(seq)], read_ids=[0, 1]
        )
        comps = reference_components_networkx(batch, 5)
        assert comps == [frozenset({0, 1})]

    def test_filter_respected(self):
        # k-mer "AAAA" occurs 6 times; filter KF < 4 removes it
        batch = ReadBatch.from_sequences(
            ["AAAAA", "AAAAC", "AAAAG"], read_ids=[0, 1, 2]
        )
        no_filter = reference_components_networkx(batch, 4)
        assert no_filter[0] == frozenset({0, 1, 2})
        filtered = reference_components_networkx(
            batch, 4, FrequencyFilter(max_freq=4)
        )
        assert all(len(c) == 1 for c in filtered)

    def test_partition_as_frozensets_matches(self):
        parent = forest_parent(5, [(0, 1), (2, 3)])
        got = partition_as_frozensets(parent, np.arange(5))
        assert got == [
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({4}),
        ]

    def test_partition_restricted_to_active(self):
        parent = forest_parent(6, [(0, 1), (2, 3)])
        got = partition_as_frozensets(parent, np.array([0, 1, 5]))
        assert got == [frozenset({0, 1}), frozenset({5})]

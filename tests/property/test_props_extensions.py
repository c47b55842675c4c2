"""Hypothesis properties for the extension modules (contraction,
normalization, splitting, cleaning)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.contraction import merge_component_arrays_contracted
from repro.cc.dsf import DisjointSetForest
from repro.cc.mergecc import merge_component_arrays
from repro.kmers.filter import FrequencyFilter
from repro.kmers.normalization import DigitalNormalizer
from repro.seqio.records import ReadBatch


def edges_strategy(max_n=30, max_edges=80):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=max_edges,
            ),
        )
    )


def partition_of(parent):
    roots = DisjointSetForest.from_parent_array(parent).roots()
    groups = {}
    for v, r in enumerate(roots.tolist()):
        groups.setdefault(r, set()).add(v)
    return {frozenset(g) for g in groups.values()}


@settings(max_examples=50)
@given(edges_strategy(), st.integers(1, 6))
def test_contracted_merge_equals_baseline(case, n_tasks):
    n, edges = case
    chunks = [edges[i::n_tasks] for i in range(n_tasks)]
    parents = []
    for chunk in chunks:
        f = DisjointSetForest(n)
        if chunk:
            us, vs = zip(*chunk)
            f.process_edges(np.array(us), np.array(vs))
        parents.append(f.parent)
    base, _ = merge_component_arrays(parents)
    con, _ = merge_component_arrays_contracted(parents)
    assert partition_of(base) == partition_of(con)


reads_strategy = st.lists(
    st.text(alphabet="ACGT", min_size=12, max_size=30), min_size=0, max_size=10
)


@settings(max_examples=30, deadline=None)
@given(reads_strategy, st.integers(1, 5))
def test_diginorm_kept_set_is_prefix_stable(seqs, coverage):
    """Adding reads at the END never changes which earlier reads are kept
    (streaming property of digital normalization)."""
    batch_all = ReadBatch.from_sequences(seqs + ["ACGTACGTACGTACGT"])
    batch_prefix = ReadBatch.from_sequences(seqs)
    norm_a = DigitalNormalizer(k=7, coverage=coverage)
    kept_a, _ = norm_a.normalize(batch_all)
    norm_b = DigitalNormalizer(k=7, coverage=coverage)
    kept_b, _ = norm_b.normalize(batch_prefix)
    kept_a_prefix = [i for i in kept_a.read_ids.tolist() if i < len(seqs)]
    assert kept_a_prefix == kept_b.read_ids.tolist()


@settings(max_examples=30, deadline=None)
@given(reads_strategy, st.integers(1, 4))
def test_diginorm_never_increases_reads(seqs, coverage):
    batch = ReadBatch.from_sequences(seqs)
    kept, stats = DigitalNormalizer(k=7, coverage=coverage).normalize(batch)
    assert kept.n_reads <= batch.n_reads
    assert stats.n_reads_kept == kept.n_reads


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.text(alphabet="ACGT", min_size=10, max_size=25), min_size=1, max_size=8),
    st.integers(2, 8),
    st.integers(1, 6),
)
def test_filter_monotone_in_cutoff(seqs, k, base_cutoff):
    """A looser frequency filter never produces a finer partition."""
    from tests.cc.reference_dsf import reference_components_networkx

    batch = ReadBatch.from_sequences(seqs)
    tight = reference_components_networkx(
        batch, k, FrequencyFilter(1, base_cutoff + 1)
    )
    loose = reference_components_networkx(
        batch, k, FrequencyFilter(1, base_cutoff + 5)
    )
    # every tight component is contained in some loose component
    for comp in tight:
        assert any(comp <= big for big in loose)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.text(alphabet="ACGT", min_size=16, max_size=40), min_size=1, max_size=6))
def test_cleaning_never_invents_kmers(seqs):
    """Tip/bubble removal only deletes edges: the cleaned graph's k-mers
    are a subset of the original solid set."""
    from repro.assembly.cleaning import clean_graph
    from repro.assembly.graph import build_debruijn_graph

    k = 8
    graph = build_debruijn_graph(ReadBatch.from_sequences(seqs), k, 1)
    cleaned, stats = clean_graph(graph)
    assert cleaned.n_edges <= graph.n_edges
    # every remaining edge existed before (same (src,dst,base) multiset)
    def edge_set(g):
        return set(
            zip(
                g.nodes[g.edge_src].tolist(),
                g.nodes[g.edge_dst].tolist(),
                g.edge_base.tolist(),
            )
        )

    assert edge_set(cleaned) <= edge_set(graph)

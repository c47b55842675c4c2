"""End-to-end hypothesis property: the full METAPREP pipeline equals the
explicit read-graph oracle for arbitrary read sets and decompositions.

This is the reproduction's headline invariant (Flick et al.'s theorem plus
METAPREP's implicit-graph implementation of it).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.dsf import DisjointSetForest
from repro.cc.localcc import local_connected_components
from repro.kmers.engine import enumerate_canonical_kmers
from repro.kmers.filter import FrequencyFilter
from repro.seqio.records import ReadBatch
from repro.sort.radix import radix_sort_tuples
from tests.cc.reference_dsf import (
    partition_as_frozensets,
    reference_components_networkx,
)

reads_strategy = st.lists(
    st.text(alphabet="ACGTN", min_size=0, max_size=40),
    min_size=1,
    max_size=12,
)


def in_memory_pipeline(batch: ReadBatch, k: int, kfilter=None, n_tasks=1):
    """The pipeline's algorithmic core without file I/O: enumerate, split
    by k-mer hash to tasks, sort, LocalCC per task, MergeCC."""
    n = int(batch.read_ids.max()) + 1 if batch.n_reads else 0
    tuples = enumerate_canonical_kmers(batch, k)
    parents = []
    for p in range(n_tasks):
        if len(tuples):
            mine = tuples.take(
                np.flatnonzero(tuples.kmers.lo % np.uint64(n_tasks) == np.uint64(p))
            )
        else:
            mine = tuples
        sorted_mine, _ = radix_sort_tuples(mine)
        forest = DisjointSetForest(n)
        local_connected_components(sorted_mine, forest, kfilter)
        parents.append(forest.parent)
    from repro.cc.mergecc import merge_component_arrays

    merged, _ = merge_component_arrays(parents)
    return merged


@settings(max_examples=40, deadline=None)
@given(reads_strategy, st.integers(2, 9), st.integers(1, 4))
def test_pipeline_equals_oracle(seqs, k, n_tasks):
    batch = ReadBatch.from_sequences(seqs)
    merged = in_memory_pipeline(batch, k, n_tasks=n_tasks)
    got = partition_as_frozensets(merged, batch.read_ids)
    ref = reference_components_networkx(batch, k)
    assert got == ref


@settings(max_examples=30, deadline=None)
@given(
    reads_strategy,
    st.integers(2, 7),
    st.integers(1, 3),
    st.integers(2, 6),
)
def test_pipeline_with_filter_equals_oracle(seqs, k, min_f, width):
    kfilter = FrequencyFilter(min_f, min_f + width)
    batch = ReadBatch.from_sequences(seqs)
    merged = in_memory_pipeline(batch, k, kfilter=kfilter, n_tasks=2)
    got = partition_as_frozensets(merged, batch.read_ids)
    ref = reference_components_networkx(batch, k, kfilter)
    assert got == ref


@settings(max_examples=25, deadline=None)
@given(reads_strategy, st.integers(2, 7))
def test_paired_end_ids_keep_mates_together(seqs, k):
    """Giving both mates one id (paper section 3.2) must keep them in the
    same component even when their sequences share no k-mer."""
    # duplicate each read as its own 'mate' with shared ids
    ids = [i for i in range(len(seqs)) for _ in range(2)]
    doubled = [s for s in seqs for _ in range(2)]
    batch = ReadBatch.from_sequences(doubled, read_ids=ids)
    merged = in_memory_pipeline(batch, k)
    got = partition_as_frozensets(merged, batch.read_ids)
    ref = reference_components_networkx(batch, k)
    assert got == ref


@settings(max_examples=25, deadline=None)
@given(reads_strategy, st.integers(2, 7))
def test_wcc_read_graph_correspondence(seqs, k):
    """Flick et al.'s theorem: reads containing k-mers of one de Bruijn
    WCC land in one read-graph CC.  Verify via the de Bruijn graph built
    with networkx."""
    import networkx as nx

    batch = ReadBatch.from_sequences(seqs)
    tuples = enumerate_canonical_kmers(batch, k)
    if len(tuples) == 0:
        return
    # Read-derived de Bruijn graph: a vertex per observed canonical k-mer,
    # an edge per observed (k+1)-mer (adjacent k-mers within a read).  The
    # overlap-implied-edge convention would join k-mers no read connects
    # and break the correspondence.
    from repro.kmers.codec import KmerCodec

    codec = KmerCodec(k)
    kmer_strs = set(codec.decode_array(tuples.kmers))
    g = nx.Graph()
    g.add_nodes_from(kmer_strs)
    for seq in seqs:
        for i in range(len(seq) - k):
            window = seq[i : i + k + 1]
            if "N" in window:
                continue
            a = codec.canonical(window[:k])
            b = codec.canonical(window[1:])
            if a != b:
                g.add_edge(a, b)
    wcc_label = {}
    for i, comp in enumerate(nx.connected_components(g)):
        for node in comp:
            wcc_label[node] = i

    merged = in_memory_pipeline(batch, k)
    roots = DisjointSetForest.from_parent_array(merged).roots()
    # reads sharing a WCC's k-mers must share a read component
    read_comp_of_wcc = {}
    for kmer_str, rid in zip(
        codec.decode_array(tuples.kmers), tuples.read_ids.tolist()
    ):
        w = wcc_label[kmer_str]
        rc = roots[rid]
        if w in read_comp_of_wcc:
            assert read_comp_of_wcc[w] == rc
        else:
            read_comp_of_wcc[w] = rc

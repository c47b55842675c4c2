"""Ablation: contracted MergeCC (paper section 5's proposed improvement).

"The scalability of METAPREP is partially limited by the MergeCC step...
This step could be improved by adopting the component graph contraction
methods described in [16]."

We run the real pipeline to produce per-task forests at several task
counts, then merge them both ways: the baseline full-array exchange and
the contracted non-trivial-pairs exchange.  Partitions must agree; the
report shows the wire-byte savings and where contraction pays off.
"""

import numpy as np
import pytest

from benchmarks.reporting import table_lines, write_report
from repro.cc.contraction import merge_component_arrays_contracted
from repro.cc.dsf import DisjointSetForest
from repro.cc.localcc import local_connected_components
from repro.cc.mergecc import merge_component_arrays
from repro.index.fastqpart import load_chunk_reads
from repro.kmers.engine import enumerate_canonical_kmers
from repro.seqio.records import ReadBatch
from repro.sort.radix import radix_sort_tuples

TASK_COUNTS = [4, 16, 64]


@pytest.fixture(scope="module")
def tuple_pool(ctx):
    index = ctx.index("MM", k=27, n_chunks=32)
    batch = ReadBatch.concatenate(
        [
            load_chunk_reads(index.fastqpart, c)
            for c in range(index.fastqpart.n_chunks)
        ]
    )
    tuples = enumerate_canonical_kmers(batch, 27)
    n_reads = int(batch.read_ids.max()) + 1
    return tuples, n_reads


def forests_for(tuples, n_reads, n_tasks):
    """Per-task forests as the pipeline would build them: tuples routed by
    k-mer value, sorted, LocalCC'ed locally."""
    parents = []
    for p in range(n_tasks):
        mine = tuples.take(
            np.flatnonzero(
                tuples.kmers.lo % np.uint64(n_tasks) == np.uint64(p)
            )
        )
        sorted_mine, _ = radix_sort_tuples(mine)
        forest = DisjointSetForest(n_reads)
        local_connected_components(sorted_mine, forest)
        parents.append(forest.parent)
    return parents


@pytest.mark.benchmark(group="ablation-mergecc")
def test_ablation_contracted_merge(tuple_pool, benchmark):
    tuples, n_reads = tuple_pool
    benchmark.pedantic(
        lambda: forests_for(tuples, n_reads, 4), rounds=1, iterations=1
    )

    rows = []
    for n_tasks in TASK_COUNTS:
        parents = forests_for(tuples, n_reads, n_tasks)
        base_parent, base_stats = merge_component_arrays(parents)
        con_parent, con_stats = merge_component_arrays_contracted(parents)

        # identical partitions
        fa = DisjointSetForest.from_parent_array(base_parent).roots()
        fb = DisjointSetForest.from_parent_array(con_parent).roots()
        assert np.array_equal(
            fa[:, None] == fa[None, :], fb[:, None] == fb[None, :]
        ), n_tasks

        rows.append(
            [
                n_tasks,
                f"{base_stats.bytes_communicated / 1e6:.2f} MB",
                f"{con_stats.bytes_communicated / 1e6:.2f} MB",
                f"{con_stats.compression_ratio:.2f}",
            ]
        )
    write_report(
        "ablation_mergecc",
        "Ablation: MergeCC full-array vs contracted exchange (MM)",
        table_lines(
            ["tasks", "baseline bytes", "contracted bytes", "ratio"], rows
        ),
    )


@pytest.mark.benchmark(group="ablation-mergecc")
def test_ablation_contraction_wins_at_high_task_counts(tuple_pool, benchmark):
    """The more tasks, the sparser each local forest, the bigger the win —
    exactly the regime where the paper says MergeCC becomes the
    bottleneck."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    tuples, n_reads = tuple_pool
    ratios = {}
    for n_tasks in TASK_COUNTS:
        parents = forests_for(tuples, n_reads, n_tasks)
        _, stats = merge_component_arrays_contracted(parents)
        ratios[n_tasks] = stats.compression_ratio
    # compression improves (ratio does not worsen) as tasks increase
    assert ratios[64] <= ratios[4] * 1.05

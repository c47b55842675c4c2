"""Ablation: index-driven static balance vs splitter sampling.

METAPREP's central engineering bet is the two index tables: knowing exact
per-range tuple counts in advance buys synchronization-free buffer writes
and the flat Figure-8 load balance.  The classical alternative is sample
sort's splitter sampling — cheaper to set up, approximately balanced.

This ablation partitions the real MM tuple stream both ways at the
paper's 16-task x 24-thread granularity and compares achieved balance;
the exact histogram must never lose, and sampling's error must shrink
with sample size (so the index's advantage is precision, not luck).
"""

import numpy as np
import pytest

from benchmarks.reporting import table_lines, write_report
from repro.index.fastqpart import load_chunk_reads
from repro.index.passplan import balanced_boundaries
from repro.kmers.engine import enumerate_canonical_kmers
from repro.seqio.records import ReadBatch
from repro.sort.sampling import measure_partition_balance, sampled_boundaries

M = 6
N_PARTS = 384  # 16 tasks x 24 threads


@pytest.fixture(scope="module")
def mm_tuples(ctx):
    index = ctx.index("MM", k=27, n_chunks=32)
    batch = ReadBatch.concatenate(
        [
            load_chunk_reads(index.fastqpart, c)
            for c in range(index.fastqpart.n_chunks)
        ]
    )
    return enumerate_canonical_kmers(batch, 27)


@pytest.mark.benchmark(group="ablation-balance")
def test_ablation_exact_vs_sampled_balance(mm_tuples, benchmark):
    benchmark.pedantic(
        lambda: sampled_boundaries(mm_tuples, M, N_PARTS, sample_size=4096, seed=0),
        rounds=1,
        iterations=1,
    )
    counts = np.bincount(
        mm_tuples.kmers.mmer_prefix(M).astype(np.int64), minlength=4**M
    )
    exact = measure_partition_balance(
        mm_tuples, M, balanced_boundaries(counts, N_PARTS)
    )
    rows = [
        ["merHist (exact)", "-", f"{exact.imbalance:.2f}"],
    ]
    sampled_at = {}
    for sample in (256, 1024, 4096, 16384):
        stats = measure_partition_balance(
            mm_tuples,
            M,
            sampled_boundaries(mm_tuples, M, N_PARTS, sample_size=sample, seed=0),
        )
        sampled_at[sample] = stats.imbalance
        rows.append(["sampled splitters", sample, f"{stats.imbalance:.2f}"])
    write_report(
        "ablation_balance",
        f"Ablation: partition balance at {N_PARTS} ranges (max/mean)",
        table_lines(["strategy", "sample size", "imbalance"], rows),
    )

    # the index never loses to sampling
    for sample, imbalance in sampled_at.items():
        assert exact.imbalance <= imbalance * 1.02, sample
    # sampling converges toward the exact answer as the sample grows
    assert sampled_at[16384] <= sampled_at[256]


@pytest.mark.benchmark(group="ablation-balance")
def test_ablation_balance_feeds_synchronization_free_writes(ctx, benchmark):
    """The second half of the bet: the exact counts let the pipeline
    precompute write offsets that the actual run matches exactly — the
    StaticCountMismatch guard (enabled in every run here) proves it on
    every benchmark execution.  Here we assert the property explicitly."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    run = ctx.run("MM", n_tasks=4, n_threads=4, n_passes=2, n_chunks=32)
    # the static-count check runs in every run; reaching here means all
    # precomputed counts matched production exactly
    # and the realized per-task tuple balance is tight
    per_task = run.work.kmergen_tuples.sum(axis=1)
    assert per_task.max() / per_task.mean() < 1.25

"""Paper Figure 9: KmerGen efficiency vs the KMC 2 k-mer counter.

Stage mapping (paper section 4.2.1): KMC 2 Stage 1 = read + super-k-mer
binning; Stage 2 = per-bin sort + compact.  METAPREP Stage 1 = KmerGen +
KmerGen-Comm; Stage 2 = LocalSort.

Both systems run for real on the same analogues and their *work volumes*
are compared (the paper's Stage 1/Stage 2 contrast is a volume story:
KMC 2 pays minimizer computation in Stage 1 to move far fewer bytes into
Stage 2).  Measured wall seconds of this substrate are reported alongside.
"""

import numpy as np
import pytest

from benchmarks.reporting import table_lines, write_report
from repro.baselines.kmc2 import Kmc2Counter
from repro.index.fastqpart import load_chunk_reads
from repro.kmers.counter import spectrum_from_tuples
from repro.kmers.engine import enumerate_canonical_kmers
from repro.runtime.work import StepNames
from repro.seqio.records import ReadBatch

DATASETS = ["HG", "LL", "MM"]
K, M = 27, 7


@pytest.fixture(scope="module")
def batches(ctx):
    out = {}
    for name in DATASETS:
        index = ctx.index(name, k=K, n_chunks=32)
        out[name] = [
            load_chunk_reads(index.fastqpart, c)
            for c in range(index.fastqpart.n_chunks)
        ]
    return out


@pytest.fixture(scope="module")
def kmc_results(batches):
    return {
        name: Kmc2Counter(K, m=M, n_bins=128).count(batches[name])
        for name in DATASETS
    }


@pytest.mark.benchmark(group="fig9")
def test_fig9_counts_agree(batches, kmc_results, benchmark):
    """Before comparing speed, both tools must count identically."""
    name = "HG"
    benchmark.pedantic(
        lambda: Kmc2Counter(K, m=M, n_bins=128).count(batches[name]),
        rounds=1,
        iterations=1,
    )
    for name in DATASETS:
        merged = ReadBatch.concatenate(batches[name])
        direct = spectrum_from_tuples(enumerate_canonical_kmers(merged, K))
        got = kmc_results[name].spectrum
        assert np.array_equal(got.kmers.lo, direct.kmers.lo)
        assert np.array_equal(got.counts, direct.counts)


@pytest.mark.benchmark(group="fig9")
def test_fig9_stage_comparison(ctx, kmc_results, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for name in DATASETS:
        run = ctx.run(name, n_tasks=2, n_threads=4, n_passes=1, n_chunks=32)
        mp_stage1 = run.measured.get(StepNames.KMERGEN) + run.measured.get(
            StepNames.KMERGEN_COMM
        )
        mp_stage2 = run.measured.get(StepNames.LOCALSORT)
        kmc = kmc_results[name]
        rows.append(
            [
                name,
                f"{mp_stage1:.2f}",
                f"{mp_stage2:.2f}",
                f"{kmc.stage1_seconds:.2f}",
                f"{kmc.stage2_seconds:.2f}",
                f"{12 * run.total_tuples / 1e6:.1f} MB",
                f"{kmc.super_kmer_bases / 1e6:.1f} MB",
                f"{kmc.compaction_ratio:.2f}",
            ]
        )
    write_report(
        "fig9",
        "Figure 9: KmerGen vs KMC 2 (measured seconds + stage volumes)",
        table_lines(
            [
                "dataset",
                "MP stage1 (s)",
                "MP stage2 (s)",
                "KMC2 stage1 (s)",
                "KMC2 stage2 (s)",
                "MP tuple bytes",
                "KMC2 bin bytes",
                "compaction",
            ],
            rows,
        ),
    )

    for name in DATASETS:
        kmc = kmc_results[name]
        run = ctx.run(name, n_tasks=2, n_threads=4, n_passes=1, n_chunks=32)
        # the defining contrast: KMC 2's Stage-1 output is much smaller
        # than METAPREP's raw 12-byte tuples...
        assert kmc.super_kmer_bases < 0.6 * 12 * run.total_tuples
        # ...because super-k-mers share bases; and no k-mer is lost
        assert kmc.n_kmers == run.total_tuples


@pytest.mark.benchmark(group="fig9")
def test_fig9_minimizer_overhead_direction(batches, benchmark):
    """METAPREP's Stage 1 does strictly less per-base work than KMC 2's
    (no minimizer windows), mirroring the paper's HG result where
    METAPREP wins Stage 1."""
    import time

    name = "HG"
    merged = ReadBatch.concatenate(batches[name])

    def raw_enumerate():
        return enumerate_canonical_kmers(merged, K)

    t0 = time.perf_counter()
    raw_enumerate()
    raw_time = time.perf_counter() - t0

    counter = Kmc2Counter(K, m=M, n_bins=128)
    t0 = time.perf_counter()
    counter.count(batches[name])
    kmc_total = time.perf_counter() - t0

    benchmark.pedantic(raw_enumerate, rounds=1, iterations=1)
    # raw enumeration beats the full minimizer pipeline
    assert raw_time < kmc_total

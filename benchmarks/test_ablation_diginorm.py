"""Ablation: digital normalization vs read-graph partitioning.

Paper section 2 credits Howe et al. with *two* preprocessing strategies —
digital normalization and partitioning — and METAPREP implements the
second.  This ablation runs the first (implemented in
``repro.kmers.normalization``) on the same analogue and reports the two
strategies' complementary effects: diginorm shrinks the *read set*,
partitioning splits it; assembly quality must survive both.
"""

import pytest

from benchmarks.reporting import table_lines, write_report
from repro.assembly.assembler import AssemblyConfig, MiniAssembler
from repro.index.fastqpart import load_chunk_reads
from repro.kmers.normalization import DigitalNormalizer
from repro.seqio.records import ReadBatch

ASM = AssemblyConfig(k=16, min_count=2, min_contig_length=50)
COVERAGE = 12


@pytest.fixture(scope="module")
def mm_batch(ctx):
    index = ctx.index("MM", k=27, n_chunks=32)
    return ReadBatch.concatenate(
        [
            load_chunk_reads(index.fastqpart, c)
            for c in range(index.fastqpart.n_chunks)
        ]
    )


@pytest.fixture(scope="module")
def normalized(mm_batch):
    return DigitalNormalizer(k=17, coverage=COVERAGE).normalize_pairs(mm_batch)


@pytest.mark.benchmark(group="ablation-diginorm")
def test_ablation_diginorm_reduces_reads(mm_batch, normalized, benchmark):
    kept, stats = normalized
    benchmark.pedantic(lambda: stats, rounds=1, iterations=1)
    write_report(
        "ablation_diginorm",
        "Ablation: digital normalization on the MM analogue",
        table_lines(
            ["quantity", "value"],
            [
                ["reads in", stats.n_reads_in],
                ["reads kept", stats.n_reads_kept],
                ["keep fraction", f"{100 * stats.keep_fraction:.1f}%"],
                ["distinct k-mers kept", stats.n_distinct_kmers],
                ["coverage threshold", COVERAGE],
            ],
        ),
    )
    # MM is deeply covered: normalization must discard a large share
    assert stats.keep_fraction < 0.7
    assert stats.n_reads_kept > 0


@pytest.mark.benchmark(group="ablation-diginorm")
def test_ablation_diginorm_preserves_assembly(mm_batch, normalized, benchmark):
    """The point of diginorm: far fewer reads, nearly the same assembly."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    kept, _ = normalized
    assembler = MiniAssembler(ASM)
    full = assembler.assemble_batch(mm_batch)
    norm = assembler.assemble_batch(kept)
    # total assembled bases survive normalization (within a modest band)
    assert norm.stats.total_bp > 0.6 * full.stats.total_bp
    # the longest contig region is largely preserved
    assert norm.stats.max_bp > 0.5 * full.stats.max_bp


@pytest.mark.benchmark(group="ablation-diginorm")
def test_ablation_diginorm_keeps_pairs_together(normalized, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    kept, _ = normalized
    ids = kept.read_ids.tolist()
    from collections import Counter

    counts = Counter(ids)
    assert all(c == 2 for c in counts.values())

#!/usr/bin/env python
"""Data-driven filter tuning: automating the paper's Table 7 exploration.

The paper picks its frequency-filter cutoffs (10, 30) "arbitrarily" and
leaves "an extensive evaluation of filtering strategies ... for future
work".  This example runs that evaluation with the extension modules:

1. estimate the dataset's coverage structure from its k-mer spectrum and
   derive a filter band (``repro.kmers.spectrum_analysis``),
2. compare with digital normalization as an alternative reduction
   (``repro.kmers.normalization``).

Run:  python examples/filter_tuning.py [workdir]
"""

import sys
import tempfile
from pathlib import Path

from repro import build_dataset
from repro.index.create import index_create
from repro.index.fastqpart import load_chunk_reads
from repro.kmers.counter import count_canonical_kmers
from repro.kmers.normalization import DigitalNormalizer
from repro.kmers.spectrum_analysis import analyze_spectrum, recommended_filter_band
from repro.seqio.records import ReadBatch

K = 27


def main() -> int:
    workdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="metaprep_tuning_")
    )
    dataset = build_dataset("HG", workdir / "data", seed=5, scale=0.8)
    index = index_create(dataset.units, k=K, m=6, n_chunks=16)
    batch = ReadBatch.concatenate(
        [
            load_chunk_reads(index.fastqpart, c)
            for c in range(index.fastqpart.n_chunks)
        ]
    )
    print(f"HG analogue: {dataset.n_pairs} pairs")

    # 1. spectrum-derived filter band
    spectrum = count_canonical_kmers(batch, K)
    report = analyze_spectrum(spectrum)
    lo, hi = recommended_filter_band(report)
    print(
        f"spectrum: coverage peak {report.coverage_peak}x, error trough at "
        f"{report.trough}, suggested band {lo} <= KF < {hi} "
        f"(the paper hand-picked 10 <= KF < 30)"
    )

    # 2. digital normalization as the alternative reduction
    kept, stats = DigitalNormalizer(k=17, coverage=report.coverage_peak).normalize_pairs(batch)
    print(
        f"\ndigital normalization at C={report.coverage_peak}: kept "
        f"{stats.n_reads_kept}/{stats.n_reads_in} reads "
        f"({100 * stats.keep_fraction:.1f}%) — an orthogonal reduction the "
        "partitioning strategy composes with"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

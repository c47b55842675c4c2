"""Sample-based range partitioning — the alternative METAPREP rejects.

The paper's static load balancing derives *exact* per-range tuple counts
from the merHist/FASTQPart histograms, precomputing every buffer offset
(sections 3.1-3.3).  The classical alternative — used by sample sort and
by many distributed sorting systems — draws a sample of keys, picks
splitters from its quantiles, and accepts approximate balance plus a
runtime counting step.

This module implements splitter sampling over the same m-mer-prefix bin
domain so the two strategies are directly comparable: the ablation
benchmark measures achieved balance (max/mean partition size) and shows
why the index-driven approach is worth the index — perfect information
beats sampling, and no synchronization or second pass over the data is
needed to size the buffers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kmers.engine import KmerTuples
from repro.util.validation import check_positive


@dataclass
class SamplingPartitionStats:
    """Per-partition tuple counts of one sample-sort split."""

    n_tuples: int
    n_parts: int
    sample_size: int
    counts: np.ndarray

    @property
    def imbalance(self) -> float:
        """max/mean partition size (1.0 = perfect)."""
        mean = self.counts.mean()
        return float(self.counts.max() / mean) if mean > 0 else 1.0


def sampled_boundaries(
    tuples: KmerTuples,
    m: int,
    n_parts: int,
    sample_size: int = 1024,
    *,
    seed: int,
) -> np.ndarray:
    """Bin-range edges from a random key sample (sample-sort style).

    Returns ``n_parts + 1`` edges over ``[0, 4^m]``, comparable to
    :func:`repro.index.passplan.balanced_boundaries` built from the exact
    histogram.

    ``seed`` is keyword-required and has no default: splitter choice
    changes the produced boundaries, so a caller must choose it on
    purpose.  The pipeline does not sample — its boundaries come from the
    exact histogram — so no run configuration carries a seed.
    """
    check_positive("n_parts", n_parts)
    check_positive("sample_size", sample_size)
    n_bins = 1 << (2 * m)
    edges = np.empty(n_parts + 1, dtype=np.int64)
    edges[0], edges[-1] = 0, n_bins
    if len(tuples) == 0 or n_parts == 1:
        inner = np.ceil(np.linspace(0, n_bins, n_parts + 1)).astype(np.int64)
        inner[0], inner[-1] = 0, n_bins
        return inner
    rng = np.random.default_rng(seed)
    take = min(sample_size, len(tuples))
    idx = rng.choice(len(tuples), size=take, replace=False)
    sample_bins = np.sort(
        tuples.take(np.sort(idx)).kmers.mmer_prefix(m).astype(np.int64)
    )
    quantiles = (np.arange(1, n_parts) * take) // n_parts
    # splitter = the sampled bin at each quantile; +1 so the splitter bin
    # itself stays in the lower part (half-open ranges)
    edges[1:-1] = sample_bins[quantiles] + 1
    np.clip(edges, 0, n_bins, out=edges)
    np.maximum.accumulate(edges, out=edges)
    return edges


def measure_partition_balance(
    tuples: KmerTuples, m: int, edges: np.ndarray
) -> SamplingPartitionStats:
    """Partition sizes induced by ``edges`` (no data movement)."""
    n_parts = len(edges) - 1
    if len(tuples) == 0:
        counts = np.zeros(n_parts, dtype=np.int64)
    else:
        bins = tuples.kmers.mmer_prefix(m).astype(np.int64)
        part = np.clip(
            np.searchsorted(edges, bins, side="right") - 1, 0, n_parts - 1
        )
        counts = np.bincount(part, minlength=n_parts).astype(np.int64)
    return SamplingPartitionStats(
        n_tuples=len(tuples),
        n_parts=n_parts,
        sample_size=0,
        counts=counts,
    )

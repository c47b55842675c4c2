"""Canonical k-mer counting and abundance spectra.

Used by the frequency filter (paper section 4.4: "k-mer frequency-based
filter"), by the KMC 2 baseline's verification path, and by the de Bruijn
assembler substrate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kmers.codec import KmerArray, KmerCodec
from repro.kmers.engine import KmerTuples, enumerate_canonical_kmers
from repro.seqio.records import ReadBatch


@dataclass
class KmerSpectrum:
    """Distinct canonical k-mers with their multiplicities.

    ``kmers`` is sorted ascending; ``counts[i]`` is the multiplicity of
    ``kmers[i]`` over the whole input.
    """

    kmers: KmerArray
    counts: np.ndarray

    def __post_init__(self) -> None:
        self.counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        if len(self.counts) != len(self.kmers):
            raise ValueError("kmers/counts length mismatch")

    @property
    def n_distinct(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def abundance_histogram(self, max_count: int = 64) -> np.ndarray:
        """Histogram of multiplicities: slot ``i`` counts distinct k-mers
        seen exactly ``i`` times (slot ``max_count`` aggregates the tail)."""
        clipped = np.minimum(self.counts, max_count)
        return np.bincount(clipped, minlength=max_count + 1)

    def count_of(self, kmer_lo: int, kmer_hi: int = 0) -> int:
        """Multiplicity of one packed k-mer (0 if absent).  A masked scan:
        spectra queried this way are small / test-sized."""
        probe = KmerCodec(self.kmers.k).array([(kmer_hi, kmer_lo)])
        match = self.kmers.equals(probe.take(np.zeros(len(self.kmers), np.intp)))
        idx = np.flatnonzero(match)
        return int(self.counts[idx[0]]) if len(idx) else 0


def spectrum_from_tuples(tuples: KmerTuples) -> KmerSpectrum:
    """Collapse (k-mer, id) tuples into a sorted spectrum."""
    if len(tuples) == 0:
        return KmerSpectrum(KmerArray.empty(tuples.k), np.empty(0, dtype=np.int64))
    order = tuples.kmers.argsort()
    sorted_kmers = tuples.kmers.take(order)
    bounds = sorted_kmers.run_boundaries()
    starts = bounds[:-1]
    counts = np.diff(bounds)
    return KmerSpectrum(sorted_kmers.take(starts), counts)


def count_canonical_kmers(batch: ReadBatch, k: int) -> KmerSpectrum:
    """Count canonical k-mers of a read batch (convenience wrapper)."""
    return spectrum_from_tuples(enumerate_canonical_kmers(batch, k))

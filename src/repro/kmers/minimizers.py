"""Minimizers and super-k-mers (substrate for the KMC 2 baseline).

KMC 2 (Deorowicz et al. 2015) bins *super-k-mers* — maximal runs of
consecutive k-mers sharing the same minimizer — instead of raw k-mers,
trading extra Stage-1 work for far fewer, shorter Stage-2 records.  That
trade is exactly what the paper's Figure 9 measures against METAPREP's raw
tuple enumeration, so the baseline needs a real minimizer implementation.

Simplification vs. KMC 2: we use plain lexicographic ordering of forward
m-mers as the minimizer order (KMC 2 uses a tweaked order that avoids
``AAA..`` hotspots).  The binning *structure* (run lengths, bin counts,
super-k-mer overhead of ``k-1`` shared bases) is unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kmers.engine import DoublingTables, valid_windows
from repro.seqio.records import ReadBatch
from repro.util.validation import check_in_range


def _window_minimizers(batch: ReadBatch, k: int, m: int) -> tuple:
    """``(valid, mins)`` over the flat k-mer starts: the engine's
    valid-window mask, and the smallest forward m-mer of each window."""
    check_in_range("m", m, 1, min(k, 32))
    valid = valid_windows(batch, k)
    npos = len(valid)
    mmers = DoublingTables(batch.codes, m).mers(
        m, 0, max(len(batch.codes) - m + 1, 0), reverse=False
    )
    mins = mmers[:npos].copy()
    for j in range(1, k - m + 1):
        np.minimum(mins, mmers[j : j + npos], out=mins)
    return valid, mins.astype(np.uint64)


@dataclass
class SuperKmers:
    """Super-k-mer segmentation of a read batch.

    Arrays are parallel, one entry per super-k-mer:

    * ``start``: flat start position (into ``batch.codes``) of the first
      k-mer of the run,
    * ``n_kmers``: number of consecutive k-mers in the run,
    * ``minimizer``: the shared packed minimizer,
    * ``read_index``: index of the containing read within the batch.
    """

    k: int
    m: int
    start: np.ndarray
    n_kmers: np.ndarray
    minimizer: np.ndarray
    read_index: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    @property
    def total_kmers(self) -> int:
        return int(self.n_kmers.sum())

    @property
    def total_bases(self) -> int:
        """Bases stored when each super-k-mer is materialized: each run of
        ``n`` k-mers spans ``n + k - 1`` bases."""
        return int((self.n_kmers + self.k - 1).sum())

    def bin_of(self, n_bins: int) -> np.ndarray:
        """Assign each super-k-mer to one of ``n_bins`` minimizer bins."""
        space = 1 << (2 * self.m)
        return (self.minimizer.astype(np.int64) * n_bins) // space


def split_super_kmers(batch: ReadBatch, k: int, m: int) -> SuperKmers:
    """Segment every read of ``batch`` into super-k-mers.

    Invariant (tested): ``sum(n_kmers)`` equals the number of valid k-mer
    positions, i.e. no k-mer is lost or duplicated by the segmentation.
    """
    valid, mins = _window_minimizers(batch, k, m)
    # A super-k-mer starts at a valid window whose predecessor is invalid
    # (a fresh run) or has another minimizer; it runs to the next start.
    is_start = valid.copy()
    is_start[1:] &= ~(valid[:-1] & (mins[1:] == mins[:-1]))
    starts = np.flatnonzero(is_start)
    first = np.flatnonzero(is_start[valid])  # run starts among valid windows
    n_kmers = np.diff(np.append(first, np.count_nonzero(valid)))

    return SuperKmers(
        k=k,
        m=m,
        start=starts,
        n_kmers=n_kmers,
        minimizer=mins[starts],
        read_index=np.repeat(np.arange(batch.n_reads), batch.lengths)[starts],
    )

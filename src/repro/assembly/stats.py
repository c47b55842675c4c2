"""Assembly quality statistics (the Table 9 columns)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class AssemblyStats:
    """Contigs / Total (Mbp) / Max (bp) / N50 (bp), as in paper Table 9."""

    n_contigs: int
    total_bp: int
    max_bp: int
    n50: int
    n90: int
    mean_bp: float

    @property
    def total_mbp(self) -> float:
        return self.total_bp / 1e6

    def as_row(self) -> list:
        return [self.n_contigs, f"{self.total_mbp:.3f}", self.max_bp, self.n50]


def n_statistic(lengths: Sequence[int], fraction: float) -> int:
    """N{fraction*100}: the length L such that contigs of length >= L cover
    at least ``fraction`` of the total assembled bases.

    >>> n_statistic([10, 8, 6, 4, 2], 0.5)
    8
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    arr = np.sort(np.asarray(list(lengths), dtype=np.int64))[::-1]
    if len(arr) == 0 or arr.sum() == 0:
        return 0
    target = float(arr.sum()) * fraction
    cum = np.cumsum(arr)
    idx = int(np.searchsorted(cum, target, side="left"))
    return int(arr[min(idx, len(arr) - 1)])


def contig_stats(contigs: Sequence[str]) -> AssemblyStats:
    """Standard contig statistics of a contig set (Table 9 columns)."""
    lengths = [len(c) for c in contigs]
    if not lengths:
        return AssemblyStats(0, 0, 0, 0, 0, 0.0)
    total = int(sum(lengths))
    return AssemblyStats(
        n_contigs=len(lengths),
        total_bp=total,
        max_bp=int(max(lengths)),
        n50=n_statistic(lengths, 0.5),
        n90=n_statistic(lengths, 0.9),
        mean_bp=total / len(lengths),
    )

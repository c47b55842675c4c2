"""merHist: the m-mer prefix histogram of canonical k-mers (section 3.1.1).

"We store counts of all m-mer prefixes of canonical k-mers (m < k; we use
m = 10 in this work)...  So there are 4^m histogram bins and the counts are
stored as 32-bit integers.  The histogram is used to partition the range of
integers spanned by k-mer values for multipass and parallel execution."
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.kmers.engine import DoublingTables, valid_windows
from repro.seqio.records import ReadBatch
from repro.seqio.tables import read_table, write_table
from repro.util.validation import check_in_range

_SCHEMA = "metaprep/merhist"


@dataclass
class MerHist:
    """The global m-mer prefix histogram.

    ``counts[b]`` is the number of canonical k-mer occurrences (with
    multiplicity) whose first ``m`` bases pack to the integer ``b``.
    """

    k: int
    m: int
    counts: np.ndarray

    def __post_init__(self) -> None:
        check_in_range("m", self.m, 1, min(self.k, 16))
        self.counts = np.ascontiguousarray(self.counts, dtype=np.uint32)
        if len(self.counts) != self.n_bins:
            raise ValueError(
                f"expected {self.n_bins} bins for m={self.m}, "
                f"got {len(self.counts)}"
            )

    @property
    def n_bins(self) -> int:
        return 1 << (2 * self.m)

    @property
    def total_tuples(self) -> int:
        """Total canonical k-mer occurrences over the whole dataset."""
        return int(self.counts.sum(dtype=np.int64))

    @property
    def nbytes(self) -> int:
        """On-disk/in-memory size: 4^(m+1) bytes (4 bytes per bin)."""
        return 4 * self.n_bins

    def cumulative(self) -> np.ndarray:
        """Exclusive prefix sum with a trailing total: length ``n_bins+1``."""
        out = np.zeros(self.n_bins + 1, dtype=np.int64)
        np.cumsum(self.counts, out=out[1:])
        return out

    def count_in_bin_range(self, lo: int, hi: int) -> int:
        """Tuples whose prefix bin lies in ``[lo, hi)``."""
        check_in_range("lo", lo, 0, self.n_bins)
        check_in_range("hi", hi, lo, self.n_bins)
        return int(self.counts[lo:hi].sum(dtype=np.int64))

    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike) -> int:
        return write_table(
            path, _SCHEMA, {"k": self.k, "m": self.m}, {"counts": self.counts}
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "MerHist":
        meta, arrays = read_table(path, expect_schema=_SCHEMA)
        return cls(k=int(meta["k"]), m=int(meta["m"]), counts=arrays["counts"])


def histogram_batch(batch: ReadBatch, k: int, m: int) -> np.ndarray:
    """m-mer prefix histogram of one read batch (uint32, 4^m bins); it
    builds no k-mer and no doubling table above ``m``."""
    valid = valid_windows(batch, k)
    bins = DoublingTables(batch.codes, m).canonical_prefixes(k, m, len(valid))
    return np.bincount(bins[valid], minlength=1 << (2 * m)).astype(np.uint32)

"""FASTQPart: the chunk table (paper section 3.1.2, Figure 2).

"We logically partition FASTQ files into C chunks which have approximately
the same file size.  In the FASTQPart table, each record contains
information for one chunk, which includes the location of the chunk within
the FASTQ file, global read ID of the first read in the chunk, and the size
of the chunk...  each record also stores a m-mer histogram...  with counts
of m-mer prefixes of canonical k-mers present in the corresponding FASTQ
chunk."

Paired-end handling: a *unit* is either a single FASTQ file or an (R1, R2)
mate pair.  Both mates of pair ``i`` carry the same global read id (section
3.2), and a chunk covers the same pair-index range in both files — the
paper notes the extra work of locating the matching read in the second
file; here that is the dual byte-range lookup stored per chunk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro import telemetry
from repro.index.merhist import histogram_batch
from repro.seqio.fastq import read_fastq_region, record_boundaries
from repro.seqio.records import FastqRecord, ReadBatch
from repro.seqio.tables import read_table, write_table
from repro.util.timers import TimeBreakdown
from repro.util.validation import check_in_range, check_positive

_SCHEMA = "metaprep/fastqpart"

#: the two IndexCreate sub-steps paper Table 5 reports separately
STEP_FASTQPART = "IndexCreate-FASTQPart"
STEP_MERHIST = "IndexCreate-merHist"


@dataclass(frozen=True)
class FastqUnit:
    """One input unit: a single-end file or a paired-end file couple."""

    r1: str
    r2: str | None = None

    @property
    def paired(self) -> bool:
        return self.r2 is not None

    @property
    def files(self) -> List[str]:
        return [self.r1] if self.r2 is None else [self.r1, self.r2]

    @staticmethod
    def wrap(spec) -> "FastqUnit":
        """Accept a FastqUnit, a path, or an (r1, r2) tuple."""
        if isinstance(spec, FastqUnit):
            return spec
        if isinstance(spec, (str, os.PathLike)):
            return FastqUnit(str(spec))
        if isinstance(spec, (tuple, list)) and len(spec) == 2:
            return FastqUnit(str(spec[0]), str(spec[1]))
        raise TypeError(f"cannot interpret FASTQ unit spec: {spec!r}")


@dataclass
class FastqPartTable:
    """The chunk table: parallel arrays, one entry per chunk.

    Layout mirrors paper Figure 2 plus the paired-end second-file location:

    * ``unit[c]``          — input unit index,
    * ``read_lo/read_hi``  — global read-id range ``[lo, hi)`` of the chunk,
    * ``offset1/size1``    — byte region in the unit's first file,
    * ``offset2/size2``    — byte region in the mate file (0/0 if single),
    * ``hist[c]``          — the chunk's m-mer prefix histogram (uint32).
    """

    k: int
    m: int
    units: List[FastqUnit]
    unit: np.ndarray
    read_lo: np.ndarray
    read_hi: np.ndarray
    offset1: np.ndarray
    size1: np.ndarray
    offset2: np.ndarray
    size2: np.ndarray
    hist: np.ndarray
    total_reads: int = field(default=0)

    def __post_init__(self) -> None:
        c = len(self.unit)
        for name in ("read_lo", "read_hi", "offset1", "size1", "offset2", "size2"):
            arr = getattr(self, name)
            if len(arr) != c:
                raise ValueError(f"{name} has {len(arr)} entries, expected {c}")
            setattr(self, name, np.ascontiguousarray(arr, dtype=np.int64))
        self.unit = np.ascontiguousarray(self.unit, dtype=np.int64)
        self.hist = np.ascontiguousarray(self.hist, dtype=np.uint32)
        if self.hist.shape != (c, 1 << (2 * self.m)):
            raise ValueError(
                f"hist shape {self.hist.shape} != ({c}, {1 << (2 * self.m)})"
            )

    @property
    def n_chunks(self) -> int:
        return len(self.unit)

    @property
    def n_bins(self) -> int:
        return 1 << (2 * self.m)

    @property
    def nbytes(self) -> int:
        """Approximate table size; the histogram matrix (4^(m+1) C bytes)
        dominates, as in the paper's memory analysis."""
        return int(self.hist.nbytes + 7 * 8 * self.n_chunks)

    def chunk_bytes(self, c: int) -> int:
        return int(self.size1[c] + self.size2[c])

    def chunk_reads(self, c: int) -> int:
        return int(self.read_hi[c] - self.read_lo[c])

    def global_histogram(self) -> np.ndarray:
        """Sum of per-chunk histograms == merHist counts (tested invariant)."""
        return self.hist.sum(axis=0, dtype=np.int64)

    # ------------------------------------------------------------------
    def save(self, path: str | os.PathLike) -> int:
        meta = {
            "k": self.k,
            "m": self.m,
            "total_reads": self.total_reads,
            "units": [[u.r1, u.r2] for u in self.units],
        }
        arrays = {
            "unit": self.unit,
            "read_lo": self.read_lo,
            "read_hi": self.read_hi,
            "offset1": self.offset1,
            "size1": self.size1,
            "offset2": self.offset2,
            "size2": self.size2,
            "hist": self.hist,
        }
        return write_table(path, _SCHEMA, meta, arrays)

    @classmethod
    def load(cls, path: str | os.PathLike) -> "FastqPartTable":
        meta, arrays = read_table(path, expect_schema=_SCHEMA)
        units = [FastqUnit(r1, r2) for r1, r2 in meta["units"]]
        return cls(
            k=int(meta["k"]),
            m=int(meta["m"]),
            units=units,
            total_reads=int(meta["total_reads"]),
            **arrays,
        )


def _chunk_read_ranges(n_reads: int, n_chunks: int) -> List[tuple]:
    """Split ``n_reads`` into ``n_chunks`` contiguous nearly-equal ranges."""
    base, extra = divmod(n_reads, n_chunks)
    ranges = []
    start = 0
    for c in range(n_chunks):
        size = base + (1 if c < extra else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def build_fastqpart(
    units: Sequence,
    k: int,
    m: int,
    n_chunks: int,
    times: TimeBreakdown | None = None,
) -> FastqPartTable:
    """Build the chunk table by scanning the input files once.

    ``n_chunks`` is the total chunk count C, distributed over units
    proportionally to their read counts (at least one chunk per non-empty
    unit).  Chunk boundaries always fall on record boundaries, and for
    paired units on the *same pair index* in both files.

    ``times`` receives the Table 5 split, timed where each half runs:
    boundary discovery under :data:`STEP_FASTQPART`, the histogram scan
    under :data:`STEP_MERHIST`.
    """
    check_in_range("m", m, 1, min(k, 16))
    check_positive("n_chunks", n_chunks)
    units = [FastqUnit.wrap(u) for u in units]
    if not units:
        raise ValueError("need at least one FASTQ unit")

    # Pass 1: record boundaries per file.
    unit_bounds: List[List[np.ndarray]] = []
    unit_reads: List[int] = []
    with telemetry.span(STEP_FASTQPART, times=times):
        for u in units:
            bounds = [
                np.asarray(record_boundaries(f), dtype=np.int64)
                for f in u.files
            ]
            n_recs = [len(b) - 1 for b in bounds]
            if u.paired and n_recs[0] != n_recs[1]:
                raise ValueError(
                    f"paired unit {u.r1}/{u.r2}: mate counts differ "
                    f"({n_recs[0]} vs {n_recs[1]})"
                )
            unit_bounds.append(bounds)
            unit_reads.append(n_recs[0])

    total_reads = sum(unit_reads)
    if total_reads == 0:
        raise ValueError("input units contain no reads")

    # Distribute chunks over units (largest remainder, >=1 per non-empty unit)
    weights = np.asarray(unit_reads, dtype=np.float64)
    raw = weights / weights.sum() * n_chunks
    alloc = np.maximum(np.floor(raw).astype(int), (weights > 0).astype(int))
    while alloc.sum() < n_chunks:
        alloc[int(np.argmax(raw - alloc))] += 1
    while alloc.sum() > n_chunks:
        over = np.where(alloc > 1)[0]
        if len(over) == 0:
            break
        alloc[over[int(np.argmin((raw - alloc)[over]))]] -= 1
    # never allocate more chunks to a unit than it has reads
    for i, r in enumerate(unit_reads):
        if r > 0:
            alloc[i] = min(alloc[i], r)

    rows = {name: [] for name in (
        "unit", "read_lo", "read_hi", "offset1", "size1", "offset2", "size2"
    )}
    hists: List[np.ndarray] = []
    next_global_id = 0
    for ui, u in enumerate(units):
        n_u = unit_reads[ui]
        if n_u == 0:
            continue
        bounds = unit_bounds[ui]
        for lo, hi in _chunk_read_ranges(n_u, int(alloc[ui])):
            rows["unit"].append(ui)
            rows["read_lo"].append(next_global_id + lo)
            rows["read_hi"].append(next_global_id + hi)
            rows["offset1"].append(int(bounds[0][lo]))
            rows["size1"].append(int(bounds[0][hi] - bounds[0][lo]))
            if u.paired:
                rows["offset2"].append(int(bounds[1][lo]))
                rows["size2"].append(int(bounds[1][hi] - bounds[1][lo]))
            else:
                rows["offset2"].append(0)
                rows["size2"].append(0)
        next_global_id += n_u

    table = FastqPartTable(
        k=k,
        m=m,
        units=units,
        unit=np.asarray(rows["unit"]),
        read_lo=np.asarray(rows["read_lo"]),
        read_hi=np.asarray(rows["read_hi"]),
        offset1=np.asarray(rows["offset1"]),
        size1=np.asarray(rows["size1"]),
        offset2=np.asarray(rows["offset2"]),
        size2=np.asarray(rows["size2"]),
        hist=np.zeros((len(rows["unit"]), 1 << (2 * m)), dtype=np.uint32),
        total_reads=total_reads,
    )

    # Pass 2: per-chunk m-mer histograms (the "read once, histogram" scan).
    with telemetry.span(STEP_MERHIST, times=times):
        for c in range(table.n_chunks):
            batch = load_chunk_reads(table, c)
            table.hist[c] = histogram_batch(batch, k, m)
    return table


def load_chunk_reads(
    table: FastqPartTable, c: int, keep_metadata: bool = True
) -> ReadBatch:
    """Materialize chunk ``c`` as a :class:`ReadBatch`.

    For paired units the two mates of pair ``i`` are adjacent (R1 then R2)
    and share the global read id ``read_lo + i``.
    """
    check_in_range("chunk", c, 0, table.n_chunks - 1)
    u = table.units[int(table.unit[c])]
    recs1 = read_fastq_region(u.r1, int(table.offset1[c]), int(table.size1[c]))
    ids = list(range(int(table.read_lo[c]), int(table.read_hi[c])))
    if len(recs1) != len(ids):
        raise ValueError(
            f"chunk {c}: expected {len(ids)} records in {u.r1}, "
            f"parsed {len(recs1)}"
        )
    if not u.paired:
        return ReadBatch.from_records(recs1, ids, keep_metadata=keep_metadata)
    recs2 = read_fastq_region(u.r2, int(table.offset2[c]), int(table.size2[c]))
    if len(recs2) != len(recs1):
        raise ValueError(
            f"chunk {c}: mate record counts differ "
            f"({len(recs1)} vs {len(recs2)})"
        )
    inter: List[FastqRecord] = []
    inter_ids: List[int] = []
    for i, (a, b) in enumerate(zip(recs1, recs2)):
        inter.extend((a, b))
        inter_ids.extend((ids[i], ids[i]))
    return ReadBatch.from_records(inter, inter_ids, keep_metadata=keep_metadata)

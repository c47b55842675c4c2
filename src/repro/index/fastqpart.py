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
from typing import List, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.index.merhist import histogram_batch
from repro.seqio.alphabet import encode_sequence
from repro.seqio.fastq import FastqScan, record_boundaries, scan_fastq
from repro.seqio.records import ReadBatch, gather_spans
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

    @property
    def peak_chunk_bytes(self) -> int:
        """Largest combined (R1 + R2) chunk payload, the section 3.7
        ``s_c``; 0 for a chunkless table."""
        if self.n_chunks == 0:
            return 0
        return int(np.max(self.size1 + self.size2))

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
            bounds = [record_boundaries(f) for f in u.files]
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

    # Unit ui's reads split into alloc[ui] contiguous nearly-equal ranges
    # (the first n % alloc ranges one read longer), numbered globally.
    columns, first_id = [], 0
    for ui, (u, bounds, n_u) in enumerate(zip(units, unit_bounds, unit_reads)):
        if n_u:
            c = np.arange(alloc[ui] + 1)
            edges = c * (n_u // alloc[ui]) + np.minimum(c, n_u % alloc[ui])
            lo, hi = edges[:-1], edges[1:]
            b1, b2 = bounds[0], bounds[-1] if u.paired else np.zeros(n_u + 1, np.int64)
            columns.append((
                np.full(len(lo), ui), first_id + lo, first_id + hi,
                b1[lo], b1[hi] - b1[lo], b2[lo], b2[hi] - b2[lo],
            ))
        first_id += n_u
    # columns in FastqPartTable field order: unit .. size2
    unit, *rest = (np.concatenate(col) for col in zip(*columns))
    table = FastqPartTable(
        k, m, units, unit, *rest,
        hist=np.zeros((len(unit), 1 << (2 * m)), dtype=np.uint32),
        total_reads=total_reads,
    )

    # Pass 2: per-chunk m-mer histograms (the "read once, histogram" scan).
    with telemetry.span(STEP_MERHIST, times=times):
        for c in range(table.n_chunks):
            batch = load_chunk_reads(table, c)
            table.hist[c] = histogram_batch(batch, k, m)
    return table


def scan_chunk(
    table: FastqPartTable, c: int
) -> Tuple[np.ndarray, FastqScan, np.ndarray]:
    """Read chunk ``c``'s byte regions and scan them once.

    Returns the regions' bytes (R1's, then R2's for a paired unit) as one
    buffer, one scan over it whose rows are the chunk's reads in batch
    order, and each row's global read id.  For paired units the two mates
    of pair ``i`` are rows ``2i`` (R1) and ``2i + 1`` (R2) and share the id
    ``read_lo + i``.  A file's final region gets the newline its last line
    may lack, so every record ends in exactly one newline.
    """
    check_in_range("chunk", c, 0, table.n_chunks - 1)
    u = table.units[int(table.unit[c])]
    regions = [(u.r1, int(table.offset1[c]), int(table.size1[c]))]
    if u.paired:
        regions.append((u.r2, int(table.offset2[c]), int(table.size2[c])))
    blobs, scans, shifts = [], [], [0]
    for path, offset, size in regions:
        with open(path, "rb") as fh:
            fh.seek(offset)
            data = fh.read(size)
        if data and not data.endswith(b"\n"):
            data += b"\n"
        scan = scan_fastq(data, f"{path}@{offset}")
        if len(scan) != table.chunk_reads(c):
            raise ValueError(
                f"chunk {c}: expected {table.chunk_reads(c)} records in "
                f"{path}, parsed {len(scan)}"
            )
        blobs.append(data)
        scans.append(scan)
        shifts.append(shifts[-1] + len(data))
    interleaved = FastqScan(**{
        name: np.stack(
            [vars(s)[name] + shift for s, shift in zip(scans, shifts)], axis=1
        ).ravel()
        for name in vars(scans[0])
    })
    ids = np.arange(int(table.read_lo[c]), int(table.read_hi[c]), dtype=np.int64)
    return np.frombuffer(b"".join(blobs), dtype=np.uint8), interleaved, np.repeat(ids, len(regions))


def load_chunk_reads(
    table: FastqPartTable, c: int, keep_metadata: bool = False
) -> ReadBatch:
    """Materialize chunk ``c`` as a :class:`ReadBatch` of 2-bit codes.

    The sequence spans of :func:`scan_chunk` are encoded in one gather, in
    its row order and with its read ids; no ``FastqRecord`` and no name or
    quality is built.  ``keep_metadata`` remains for callers that pass it
    and accepts only ``False``; anything else raises ``TypeError``.
    """
    if keep_metadata is not False:
        raise TypeError("load_chunk_reads keeps no read metadata")
    buf, scan, read_ids = scan_chunk(table, c)
    raw, offsets = gather_spans(buf, scan.seq_start, scan.seq_end)
    return ReadBatch(encode_sequence(raw), offsets, read_ids)

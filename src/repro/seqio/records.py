"""Read containers.

:class:`FastqRecord` is the scalar view of a single read.  The pipeline
itself never loops over records: :class:`ReadBatch` stores a whole FASTQ
chunk as one concatenated 2-bit code array plus CSR-style offsets, which is
what the vectorized k-mer engine consumes (one NumPy pass per chunk instead
of a Python loop per read).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.seqio.alphabet import decode_sequence, encode_sequence


def gather_spans(
    buf: np.ndarray, start: np.ndarray, end: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``buf[start[i]:end[i]]`` over all ``i`` in one gather.

    Returns the gathered values and CSR offsets (``len(start) + 1``
    entries): span ``i`` lands at ``out[offsets[i]:offsets[i + 1]]``.
    """
    lengths = end - start
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    index = np.arange(offsets[-1]) + np.repeat(start - offsets[:-1], lengths)
    return buf[index], offsets


@dataclass(frozen=True)
class FastqRecord:
    """One FASTQ read: ``@name`` / sequence / ``+`` / quality."""

    name: str
    sequence: str
    quality: str

    def __post_init__(self) -> None:
        if len(self.sequence) != len(self.quality):
            raise ValueError(
                f"read {self.name!r}: sequence length {len(self.sequence)} "
                f"!= quality length {len(self.quality)}"
            )

    def __len__(self) -> int:
        return len(self.sequence)

    def to_fastq(self) -> str:
        return f"@{self.name}\n{self.sequence}\n+\n{self.quality}\n"


class ReadBatch:
    """A set of reads in structure-of-arrays layout.

    Attributes
    ----------
    codes : uint8 array, all reads' 2-bit codes concatenated.
    offsets : int64 array of length ``n_reads + 1``; read ``i`` occupies
        ``codes[offsets[i]:offsets[i+1]]``.
    read_ids : int64 array of *global* read identifiers.  Both mates of a
        paired-end read carry the same id (paper section 3.2), so a batch
        may contain duplicate ids.
    names, quals : optional per-read metadata (kept by :meth:`from_records`,
        for callers that write the batch back out as FASTQ).
    """

    __slots__ = ("codes", "offsets", "read_ids", "names", "quals")

    def __init__(
        self,
        codes: np.ndarray,
        offsets: np.ndarray,
        read_ids: np.ndarray,
        names: List[str] | None = None,
        quals: List[str] | None = None,
    ) -> None:
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        read_ids = np.ascontiguousarray(read_ids, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) == 0:
            raise ValueError("offsets must be a non-empty 1-D array")
        if offsets[0] != 0 or offsets[-1] != len(codes):
            raise ValueError("offsets must start at 0 and end at len(codes)")
        if np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        n = len(offsets) - 1
        if len(read_ids) != n:
            raise ValueError(f"expected {n} read ids, got {len(read_ids)}")
        for label, meta in (("names", names), ("quals", quals)):
            if meta is not None and len(meta) != n:
                raise ValueError(f"expected {n} {label}, got {len(meta)}")
        self.codes = codes
        self.offsets = offsets
        self.read_ids = read_ids
        self.names = names
        self.quals = quals

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_records(
        cls,
        records: Sequence[FastqRecord],
        read_ids: Iterable[int] | None = None,
    ) -> "ReadBatch":
        """Build a batch from scalar records, keeping names and qualities.

        ``read_ids`` defaults to ``0..n-1``.
        """
        records = list(records)
        batch = cls.from_sequences([r.sequence for r in records], read_ids)
        batch.names = [r.name for r in records]
        batch.quals = [r.quality for r in records]
        return batch

    @classmethod
    def from_sequences(
        cls,
        sequences: Sequence[str],
        read_ids: Iterable[int] | None = None,
    ) -> "ReadBatch":
        """Build a metadata-free batch from plain strings, encoded in one
        pass; ``read_ids`` defaults to ``0..n-1``."""
        n = len(sequences)
        lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        ids = range(n) if read_ids is None else read_ids
        ids = np.fromiter((int(i) for i in ids), dtype=np.int64, count=n)
        return cls(encode_sequence("".join(sequences)), offsets, ids)

    @classmethod
    def empty(cls) -> "ReadBatch":
        return cls(
            np.empty(0, dtype=np.uint8),
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_reads(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_bases(self) -> int:
        return int(self.offsets[-1])

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def sequence(self, i: int) -> str:
        return decode_sequence(self.codes[self.offsets[i] : self.offsets[i + 1]])

    def record(self, i: int) -> FastqRecord:
        seq = self.sequence(i)
        name = self.names[i] if self.names else f"read/{int(self.read_ids[i])}"
        qual = self.quals[i] if self.quals else "I" * len(seq)
        return FastqRecord(name, seq, qual)

    def __len__(self) -> int:
        return self.n_reads

    def __iter__(self) -> Iterator[FastqRecord]:
        for i in range(self.n_reads):
            yield self.record(i)

    def select(self, indices: np.ndarray) -> "ReadBatch":
        """Return a new batch holding reads at ``indices`` (gather)."""
        indices = np.asarray(indices, dtype=np.int64)
        codes, offsets = gather_spans(
            self.codes, self.offsets[indices], self.offsets[indices + 1]
        )
        names = [self.names[i] for i in indices] if self.names else None
        quals = [self.quals[i] for i in indices] if self.quals else None
        return ReadBatch(codes, offsets, self.read_ids[indices], names, quals)

    @staticmethod
    def concatenate(batches: Sequence["ReadBatch"]) -> "ReadBatch":
        """Concatenate batches preserving order."""
        batches = [b for b in batches if b.n_reads > 0]
        if not batches:
            return ReadBatch.empty()
        codes = np.concatenate([b.codes for b in batches])
        lengths = np.concatenate([b.lengths for b in batches])
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        read_ids = np.concatenate([b.read_ids for b in batches])
        if all(b.names is not None for b in batches):
            names: List[str] | None = [n for b in batches for n in b.names or []]
            quals: List[str] | None = [q for b in batches for q in b.quals or []]
        else:
            names = quals = None
        return ReadBatch(codes, offsets, read_ids, names, quals)

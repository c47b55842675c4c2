"""FASTQ reading and writing.

One vectorised scanner, :func:`scan_fastq`, decides what a FASTQ record is:
it indexes a byte buffer's newlines once and returns every record's byte
spans.  Every reader is a caller of it: whole-file reads
(:func:`read_fastq`), FASTQPart boundary discovery
(:func:`record_boundaries`), and the chunk loads and partition writes of
:mod:`repro.index.fastqpart` / :mod:`repro.core.partition`, which work on
the spans of a chunk's byte region and never build a :class:`FastqRecord`.
"""

from __future__ import annotations

import gzip
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List

import numpy as np

from repro.seqio.records import FastqRecord

_AT, _PLUS, _CR, _LF = (ord(c) for c in "@+\r\n")


class FastqParseError(ValueError):
    """Raised on malformed FASTQ input."""


def _is_gzip(path: str | os.PathLike) -> bool:
    return str(path).endswith(".gz")


@dataclass(frozen=True)
class FastqScan:
    """Byte spans of the records in one buffer: int64 arrays, one entry per
    record.

    ``start``/``end`` delimit the whole record, from its ``@`` to one past
    the quality line's newline (or the end of the buffer, when the last
    line has none).  The ``name`` (after the ``@``), ``seq`` and ``qual``
    spans exclude line terminators.
    """

    start: np.ndarray
    end: np.ndarray
    name_start: np.ndarray
    name_end: np.ndarray
    seq_start: np.ndarray
    seq_end: np.ndarray
    qual_start: np.ndarray
    qual_end: np.ndarray

    def __len__(self) -> int:
        return len(self.start)


def _lineno(newlines: np.ndarray, pos: int) -> int:
    return int(np.searchsorted(newlines, pos)) + 1


def scan_fastq(data: bytes, label: str) -> FastqScan:
    """Index every FASTQ record of ``data`` from one newline index.

    A record is an ``@`` header line, a sequence line, a ``+`` separator
    line and a quality line as long as the sequence.  Blank lines between
    records are skipped, the last line may lack its newline, and one
    ``\\r`` before each newline is dropped (CRLF files).  Anything else
    raises :class:`FastqParseError` naming ``label:line``: a missing ``@``
    or ``+``, a sequence/quality length mismatch, a truncated record (empty
    sequence and quality), a non-ASCII byte, or a carriage return inside a
    line.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == _LF)
    if len(buf) and buf.max() >= 0x80:
        pos = int(np.argmax(buf >= 0x80))
        raise FastqParseError(
            f"{label}:{_lineno(newlines, pos)}: non-ASCII byte {buf[pos]:#04x}"
        )
    # line i is buf[line_start[i]:line_end[i]]; line_next[i] is one past
    # its newline.  An unterminated last line ends at the end of the buffer.
    n_lines = len(newlines) + int(len(buf) > 0 and buf[-1] != _LF)
    line_start = np.concatenate(([0], newlines + 1))[:n_lines]
    line_next = np.append(newlines + 1, len(buf))[:n_lines]
    line_end = np.append(newlines, len(buf))[:n_lines]
    cr = (line_end > line_start) & (buf[line_end - 1] == _CR)
    line_end -= cr
    carriage_returns = np.flatnonzero(buf == _CR)
    if len(carriage_returns) != np.count_nonzero(cr):
        pos = int(np.setdiff1d(carriage_returns, line_end[cr])[0])
        raise FastqParseError(
            f"{label}:{_lineno(newlines, pos)}: carriage return inside a line"
        )

    # Headers are every fourth non-blank line.  Each record's other three
    # lines are the three raw lines after its header (three empty lines pad
    # the end of the buffer), so a blank or missing line inside a record
    # fails one of the four checks below, in the order they are reported.
    length = np.append(line_end - line_start, [0, 0, 0])
    nonblank = np.flatnonzero(length)
    first = np.zeros(len(length), dtype=np.uint8)
    first[nonblank] = buf[line_start[nonblank]]
    head = nonblank[::4]
    seq_len, qual_len = length[head + 1], length[head + 3]
    failed = np.stack([
        first[head] != _AT,
        (seq_len == 0) & (qual_len == 0),
        first[head + 2] != _PLUS,
        seq_len != qual_len,
    ])
    if failed.any():
        rec = int(np.argmax(failed.any(axis=0)))
        h = int(head[rec])

        def text(i: int) -> str:
            return data[line_start[i] : line_end[i]].decode() if i < n_lines else ""

        raise FastqParseError([
            f"{label}:{h + 1}: expected '@' header, got {text(h)[:30]!r}",
            f"{label}:{h + 4}: truncated record",
            f"{label}:{h + 3}: expected '+' separator, got {text(h + 2)[:30]!r}",
            f"{label}:{h + 4}: sequence/quality length mismatch "
            f"({seq_len[rec]} vs {qual_len[rec]})",
        ][int(np.argmax(failed[:, rec]))])
    return FastqScan(
        start=line_start[head],
        end=line_next[head + 3],
        name_start=line_start[head] + 1,
        name_end=line_end[head],
        seq_start=line_start[head + 1],
        seq_end=line_end[head + 1],
        qual_start=line_start[head + 3],
        qual_end=line_end[head + 3],
    )


def read_fastq(path: str | os.PathLike) -> List[FastqRecord]:
    """Read an entire FASTQ file (``.gz`` handled transparently).

    Raises :class:`FastqParseError` on malformed input (see
    :func:`scan_fastq`).
    """
    with (gzip.open if _is_gzip(path) else open)(path, "rb") as fh:
        data = fh.read()
    scan = scan_fastq(data, str(path))
    text = data.decode("ascii")
    spans = zip(*(a.tolist() for a in (
        scan.name_start, scan.name_end, scan.seq_start, scan.seq_end,
        scan.qual_start, scan.qual_end,
    )))
    return [FastqRecord(text[a:b], text[c:d], text[e:f]) for a, b, c, d, e, f in spans]


def write_fastq(
    path: str | os.PathLike, records: Iterable[FastqRecord], append: bool = False
) -> int:
    """Write records to ``path`` (gzipped if it ends in ``.gz``); returns
    the number written."""
    n = 0
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    opener = gzip.open if _is_gzip(path) else open
    with opener(path, "at" if append else "wt", encoding="ascii") as fh:
        for rec in records:
            fh.write(rec.to_fastq())
            n += 1
    return n


def record_boundaries(path: str | os.PathLike) -> np.ndarray:
    """Return the byte offset of every record's ``@`` plus the file size.

    The FASTQPart chunker places chunk boundaries on these, so a malformed
    input fails here, at IndexCreate, with its file and line.  Gzipped
    inputs are rejected: byte-offset chunked access needs a seekable
    uncompressed file (decompress first, as the paper's tool requires of
    its inputs).
    """
    if _is_gzip(path):
        raise FastqParseError(
            f"{path}: chunk-boundary discovery requires an uncompressed "
            "FASTQ; decompress first"
        )
    data = Path(path).read_bytes()
    return np.append(scan_fastq(data, str(path)).start, len(data))

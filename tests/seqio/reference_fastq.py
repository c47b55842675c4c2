"""Reference FASTQ parser: the line-by-line text reader the vectorised
scanner replaced, kept verbatim as the differential oracle for
:func:`repro.seqio.fastq.scan_fastq` and its callers.

It reads through a text handle with universal newlines, four ``readline``
calls per record.
"""

from __future__ import annotations

import io
import os
from typing import Iterator, List

from repro.seqio.fastq import FastqParseError
from repro.seqio.records import FastqRecord


def _iter_fastq_handle(fh: io.TextIOBase, label: str) -> Iterator[FastqRecord]:
    lineno = 0
    while True:
        header = fh.readline()
        if not header:
            return
        lineno += 1
        header = header.rstrip("\n")
        if not header:
            # tolerate trailing blank lines
            continue
        if not header.startswith("@"):
            raise FastqParseError(
                f"{label}:{lineno}: expected '@' header, got {header[:30]!r}"
            )
        seq = fh.readline().rstrip("\n")
        plus = fh.readline().rstrip("\n")
        qual = fh.readline().rstrip("\n")
        lineno += 3
        if not qual and not seq:
            raise FastqParseError(f"{label}:{lineno}: truncated record")
        if not plus.startswith("+"):
            raise FastqParseError(
                f"{label}:{lineno - 1}: expected '+' separator, got {plus[:30]!r}"
            )
        if len(seq) != len(qual):
            raise FastqParseError(
                f"{label}:{lineno}: sequence/quality length mismatch "
                f"({len(seq)} vs {len(qual)})"
            )
        yield FastqRecord(header[1:], seq, qual)


def reference_read_fastq(path: str | os.PathLike) -> List[FastqRecord]:
    """Read a whole plain-text FASTQ file with the reference parser."""
    with open(path, "rt", encoding="ascii") as fh:
        return list(_iter_fastq_handle(fh, str(path)))

"""The vectorised record scanner against the reference line-by-line parser.

On generated FASTQ text — LF or CRLF, blank lines, a missing final
newline, lowercase and IUPAC letters, ``+name`` separators, and records
broken in every way the parsers check — ``read_fastq`` (built on
:func:`repro.seqio.fastq.scan_fastq`) returns the reference's records or
raises the reference's ``FastqParseError`` text.  On the inputs both accept,
every chunking of a paired table loads the reference records' codes,
offsets and ids.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.fastqpart import build_fastqpart, load_chunk_reads
from repro.seqio.fastq import FastqParseError, read_fastq, record_boundaries
from repro.seqio.records import ReadBatch
from tests.seqio.reference_fastq import reference_read_fastq

BASES = "ACGTNacgtnRYKMSWBDHV"
#: most records are well formed, so the chunking half sees enough inputs
FAULTS = ["none"] * 8 + ["blank", "no_at", "no_plus", "qual_len", "drop", "empty"]

names = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=10)


@st.composite
def fastq_text(draw) -> bytes:
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(names)
        seq = draw(st.text(BASES, min_size=1, max_size=16))
        qual = draw(st.text("!#5?I", min_size=len(seq), max_size=len(seq)))
        plus = "+" + (name if draw(st.booleans()) else "")
        record = [f"@{name}", seq, plus, qual]
        fault = draw(st.sampled_from(FAULTS))
        if fault == "blank":
            lines.extend([""] * draw(st.integers(1, 2)))
        elif fault == "no_at":
            record[0] = name
        elif fault == "no_plus":
            record[2] = draw(st.sampled_from(["", "-", seq]))
        elif fault == "qual_len":
            record[3] = qual + "I" if draw(st.booleans()) else qual[1:]
        elif fault == "drop":
            del record[draw(st.integers(0, 3))]
        elif fault == "empty":
            record[1] = record[3] = ""
        lines.extend(record)
    text = newline.join(lines)
    if lines and draw(st.booleans()):
        text += newline * draw(st.integers(1, 3))
    return text.encode("ascii")


def _outcome(read, path):
    try:
        return read(path)
    except FastqParseError as exc:
        return f"FastqParseError: {exc}"


@settings(max_examples=150, deadline=None)
@given(fastq_text(), st.integers(1, 8))
def test_scanner_matches_reference_parser(data, n_chunks):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.fastq"
        path.write_bytes(data)
        want = _outcome(reference_read_fastq, path)
        assert _outcome(read_fastq, path) == want
        if isinstance(want, str):
            return
        assert len(record_boundaries(path)) == len(want) + 1
        if not want:
            return
        table = build_fastqpart([(str(path), str(path))], k=5, m=2, n_chunks=n_chunks)
        for c in range(table.n_chunks):
            lo, hi = int(table.read_lo[c]), int(table.read_hi[c])
            ref = ReadBatch.from_records(
                [rec for rec in want[lo:hi] for _ in (0, 1)],
                [i for i in range(lo, hi) for _ in (0, 1)],
            )
            got = load_chunk_reads(table, c)
            assert np.array_equal(got.codes, ref.codes)
            assert np.array_equal(got.offsets, ref.offsets)
            assert np.array_equal(got.read_ids, ref.read_ids)

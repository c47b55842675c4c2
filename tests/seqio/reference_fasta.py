"""Reference FASTA reader: the oracle the writer's round-trip tests read
:func:`repro.seqio.fasta.write_fasta` output back with.  Nothing in the
program reads FASTA."""

from __future__ import annotations

import os
from typing import List, Tuple


def read_fasta(path: str | os.PathLike) -> List[Tuple[str, str]]:
    """Every ``(name, sequence)`` record of a FASTA file.

    Blank lines are skipped and a record's sequence lines are joined; a
    sequence line before any ``>`` header raises ``ValueError``.
    """
    records: List[Tuple[str, List[str]]] = []
    with open(path, "rt", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line.startswith(">"):
                records.append((line[1:], []))
            elif line:
                if not records:
                    raise ValueError(f"{path}:{lineno}: sequence before any '>' header")
                records[-1][1].append(line)
    return [(name, "".join(chunks)) for name, chunks in records]

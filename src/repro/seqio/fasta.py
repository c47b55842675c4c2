"""FASTA writing (contig output of the assembler substrate)."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Sequence, Tuple


def write_fasta(
    path: str | os.PathLike,
    records: Sequence[Tuple[str, str]],
    line_width: int = 80,
) -> int:
    """Write ``(name, sequence)`` records; returns the count written."""
    if line_width < 1:
        raise ValueError(f"line_width must be >= 1, got {line_width}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    n = 0
    with open(path, "w", encoding="ascii") as fh:
        for name, seq in records:
            fh.write(f">{name}\n")
            for i in range(0, len(seq), line_width):
                fh.write(seq[i : i + line_width])
                fh.write("\n")
            n += 1
    return n


def write_contigs(path: str | os.PathLike, contigs: Sequence[str]) -> int:
    """Write assembler contigs with standard headers."""
    return write_fasta(
        path,
        [
            (f"contig_{i} len={len(c)}", c)
            for i, c in enumerate(contigs)
        ],
    )

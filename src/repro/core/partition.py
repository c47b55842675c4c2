"""Partitioned FASTQ output (the tail of MergeCC, paper section 3.6).

"We currently write the reads corresponding to the largest component to one
file, and all other reads to another file, since we observed a giant
component being formed for most of the datasets...  Each thread extracts
reads from its FASTQ chunks and writes them to the corresponding output
FASTQ files.  Each thread writes to separate FASTQ files."
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.cc.components import ComponentSummary, compact_labels, summarize_components
from repro.index.fastqpart import FastqPartTable, scan_chunk
from repro.seqio.records import gather_spans


@dataclass
class PartitionResult:
    """The global partition and its output materialization."""

    parent: np.ndarray
    labels: np.ndarray
    summary: ComponentSummary
    largest_label: int
    #: output files per class; empty when output writing was disabled
    lc_files: List[str] = field(default_factory=list)
    other_files: List[str] = field(default_factory=list)
    #: FASTQ bytes written per (task, thread)
    bytes_written: np.ndarray | None = None
    lc_reads_written: int = 0
    other_reads_written: int = 0

    @property
    def largest_component_fraction(self) -> float:
        return self.summary.largest_component_fraction

    def lc_mask(self) -> np.ndarray:
        """Boolean mask over global read ids: in the largest component."""
        return self.labels == self.largest_label


def partition_from_parent(parent: np.ndarray) -> PartitionResult:
    """Label components and identify the largest one."""
    labels = compact_labels(parent)
    summary = summarize_components(parent)
    if len(labels):
        counts = np.bincount(labels)
        largest = int(np.argmax(counts))
    else:
        largest = -1
    return PartitionResult(
        parent=np.asarray(parent, dtype=np.int64),
        labels=labels,
        summary=summary,
        largest_label=largest,
    )


def write_partitions(
    result: PartitionResult,
    table: FastqPartTable,
    assignment: np.ndarray,
    n_tasks: int,
    n_threads: int,
    output_dir: str | os.PathLike,
) -> PartitionResult:
    """Write the partitioned reads; one LC + one 'other' file per thread.

    Reads are re-extracted chunk by chunk using the same chunk->thread
    assignment as KmerGen, so output I/O parallelism matches the paper's.
    Each chunk region is scanned once and the selected records are written
    as their input bytes, each ending in one newline; every output file is
    opened once per run.  Mutates and returns ``result`` with file lists
    and byte accounting.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    bytes_written = np.zeros((n_tasks, n_threads), dtype=np.int64)
    in_lc = result.lc_mask()
    lc_total = other_total = 0
    handles: Dict[tuple, List] = {}

    with ExitStack() as stack:
        for c in range(table.n_chunks):
            p, t = divmod(int(assignment[c]), n_threads)
            if (p, t) not in handles:
                paths = [out / f"lc_p{p}_t{t}.fastq", out / f"other_p{p}_t{t}.fastq"]
                handles[p, t] = [stack.enter_context(open(f, "wb")) for f in paths]
                result.lc_files.append(str(paths[0]))
                result.other_files.append(str(paths[1]))
            buf, scan, read_ids = scan_chunk(table, c)
            lc = in_lc[read_ids]
            for fh, keep in zip(handles[p, t], (lc, ~lc)):
                raw, _ = gather_spans(buf, scan.start[keep], scan.end[keep])
                fh.write(raw)
                bytes_written[p, t] += len(raw)
            lc_total += int(lc.sum())
            other_total += int((~lc).sum())

    result.bytes_written = bytes_written
    result.lc_reads_written = lc_total
    result.other_reads_written = other_total
    return result

"""Work-volume accounting: what the pipeline measured, per task and thread.

A :class:`RunWork` instance is filled in by the pipeline during execution
and is the *only* input the timing model needs — it captures the real,
data-dependent decomposition (tuples per thread, bytes per message, edges
per pass) from which every projected figure follows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Tuple

import numpy as np


class StepNames:
    """Step labels, matching the legends of the paper's Figures 5-7."""

    KMERGEN_IO = "KmerGen-I/O"
    KMERGEN = "KmerGen"
    KMERGEN_COMM = "KmerGen-Comm"
    LOCALSORT = "LocalSort"
    LOCALCC = "LocalCC-Opt"
    MERGE_COMM = "Merge-Comm"
    MERGECC = "MergeCC"
    CC_IO = "CC-I/O"

    #: stacked-bar order used in the paper's plots
    ORDER = [
        KMERGEN_IO,
        KMERGEN,
        KMERGEN_COMM,
        LOCALSORT,
        LOCALCC,
        MERGE_COMM,
        MERGECC,
        CC_IO,
    ]


class TaskMemory(NamedTuple):
    """Paper section 3.7's per-task memory, term by term, in bytes."""

    #: merHist + FASTQPart, ``4^(m+1) (C + 1)`` in the paper
    tables: int
    #: one FASTQ chunk buffer per thread, ``T s_c``
    fastq_buffer: int
    #: outgoing and incoming tuple buffers of one pass
    kmer_out: int
    kmer_in: int
    #: the component arrays p and p', 4 bytes per read each
    components: int

    @property
    def total(self) -> int:
        return sum(self)


def task_memory(
    table_bytes: int,
    chunk_bytes: int,
    n_threads: int,
    n_reads: int,
    tuple_bytes: int,
    tuples_per_task_pass: int,
) -> TaskMemory:
    """Paper section 3.7: ``4^(m+1)(C+1) + T s_c + 2 tuple_bytes M/(S P) + 8R``.

    The only copy of the formula.  ``tuples_per_task_pass`` is where it is
    evaluated: the pass planner and the run report take the plan's largest
    owner block (:attr:`~repro.index.passplan.PassPlan.worst_tuples_per_task`),
    the timing projection the paper's mean pass ``M/(S P)``
    (:meth:`RunWork.mean_pass_memory`).
    """
    kmer_buffer = tuple_bytes * tuples_per_task_pass
    return TaskMemory(
        tables=table_bytes,
        fastq_buffer=n_threads * chunk_bytes,
        kmer_out=kmer_buffer,
        kmer_in=kmer_buffer,
        components=2 * 4 * n_reads,
    )


@dataclass
class RunWork:
    """Measured work volumes for one pipeline run.

    All ``(P, T)`` arrays are totals across passes unless noted.
    """

    n_tasks: int
    n_threads: int
    n_passes: int
    n_reads: int
    k: int
    tuple_bytes: int

    # KmerGen
    kmergen_io_bytes: np.ndarray = field(default=None)  # (P, T)
    fastq_parse_bytes: np.ndarray = field(default=None)  # (P, T)
    #: tuples kept (in the pass's k-mer range); sums to the dataset total
    kmergen_tuples: np.ndarray = field(default=None)  # (P, T)
    #: k-mer positions scanned, counted every pass (multipass re-scans the
    #: whole read set and range-tests each canonical k-mer)
    kmergen_positions_scanned: np.ndarray = field(default=None)  # (P, T)

    # KmerGen-Comm
    comm_bytes_matrix: np.ndarray = field(default=None)  # (P, P) totals
    #: per pass, per stage: largest wire message in that stage
    comm_stage_max_bytes: List[List[int]] = field(default_factory=list)

    # LocalSort
    partition_tuples: np.ndarray = field(default=None)  # (P, T)
    sort_tuple_passes: np.ndarray = field(default=None)  # (P, T)

    # LocalCC
    cc_edges_first_pass: np.ndarray = field(default=None)  # (P, T)
    cc_edges_later_passes: np.ndarray = field(default=None)  # (P, T)

    # MergeCC
    merge_rounds: List[List[Tuple[int, int]]] = field(default_factory=list)
    merge_bytes_per_send: int = 0
    merge_entries_by_task: np.ndarray = field(default=None)  # (P,)
    broadcast_bytes: int = 0

    # CC output
    ccio_bytes: np.ndarray = field(default=None)  # (P, T)

    # memory-model inputs (paper section 3.7): largest FASTQ chunk and the
    # resident index tables; see task_memory.
    fastq_chunk_bytes: int = 0
    table_bytes: int = 0

    def __post_init__(self) -> None:
        shape = (self.n_tasks, self.n_threads)
        for name in (
            "kmergen_io_bytes",
            "fastq_parse_bytes",
            "kmergen_tuples",
            "kmergen_positions_scanned",
            "partition_tuples",
            "sort_tuple_passes",
            "cc_edges_first_pass",
            "cc_edges_later_passes",
            "ccio_bytes",
        ):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(shape, dtype=np.int64))
        if self.comm_bytes_matrix is None:
            self.comm_bytes_matrix = np.zeros(
                (self.n_tasks, self.n_tasks), dtype=np.int64
            )
        if self.merge_entries_by_task is None:
            self.merge_entries_by_task = np.zeros(self.n_tasks, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def total_tuples(self) -> int:
        return int(self.kmergen_tuples.sum())

    @property
    def total_edges(self) -> int:
        return int(
            self.cc_edges_first_pass.sum() + self.cc_edges_later_passes.sum()
        )

    @property
    def wire_bytes(self) -> int:
        off = self.comm_bytes_matrix.copy()
        np.fill_diagonal(off, 0)
        return int(off.sum())

    def memory_at(self, tuples_per_task_pass: int) -> TaskMemory:
        """The section 3.7 model on this run's fixed terms, for a pass
        that hands each task ``tuples_per_task_pass`` tuples."""
        return task_memory(
            self.table_bytes,
            self.fastq_chunk_bytes,
            self.n_threads,
            self.n_reads,
            self.tuple_bytes,
            tuples_per_task_pass,
        )

    def mean_pass_memory(self) -> TaskMemory:
        """The model at the paper's mean pass ``M/(S P)``: what the timing
        projection charges for memory pressure."""
        per_pass_tuples = self.kmergen_tuples.sum() / max(self.n_passes, 1)
        return self.memory_at(int(np.ceil(per_pass_tuples / self.n_tasks)))

    def scaled(self, factor: float) -> "RunWork":
        """A copy with every volume multiplied by ``factor``.

        The benchmark harnesses run the pipeline on a scaled-down synthetic
        analogue and project figures at the *paper's* dataset size by
        scaling the measured volumes linearly (factor = paper bases /
        analogue bases).  Ratios between tasks/threads/steps — i.e. all
        the structure — are preserved exactly.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")

        def _s(arr: np.ndarray) -> np.ndarray:
            return np.round(arr.astype(np.float64) * factor).astype(np.int64)

        clone = RunWork(
            n_tasks=self.n_tasks,
            n_threads=self.n_threads,
            n_passes=self.n_passes,
            n_reads=int(round(self.n_reads * factor)),
            k=self.k,
            tuple_bytes=self.tuple_bytes,
        )
        clone.kmergen_io_bytes = _s(self.kmergen_io_bytes)
        clone.fastq_parse_bytes = _s(self.fastq_parse_bytes)
        clone.kmergen_tuples = _s(self.kmergen_tuples)
        clone.kmergen_positions_scanned = _s(self.kmergen_positions_scanned)
        clone.comm_bytes_matrix = _s(self.comm_bytes_matrix)
        clone.comm_stage_max_bytes = [
            [int(round(b * factor)) for b in stage]
            for stage in self.comm_stage_max_bytes
        ]
        clone.partition_tuples = _s(self.partition_tuples)
        clone.sort_tuple_passes = _s(self.sort_tuple_passes)
        clone.cc_edges_first_pass = _s(self.cc_edges_first_pass)
        clone.cc_edges_later_passes = _s(self.cc_edges_later_passes)
        clone.merge_rounds = [list(r) for r in self.merge_rounds]
        clone.merge_bytes_per_send = int(round(self.merge_bytes_per_send * factor))
        clone.merge_entries_by_task = _s(self.merge_entries_by_task)
        clone.broadcast_bytes = int(round(self.broadcast_bytes * factor))
        clone.ccio_bytes = _s(self.ccio_bytes)
        # chunk payloads grow with the data; index tables are 4^m-bound
        clone.fastq_chunk_bytes = int(round(self.fastq_chunk_bytes * factor))
        clone.table_bytes = self.table_bytes
        return clone

    def imbalance(self, array: np.ndarray) -> float:
        """max/mean ratio over tasks of a per-(task,thread) volume (1.0 is
        perfectly balanced); the quantity behind Figure 8's box plots."""
        per_task = array.sum(axis=1).astype(np.float64)
        mean = per_task.mean()
        return float(per_task.max() / mean) if mean > 0 else 1.0

"""Static load-balancing arithmetic from the FASTQPart histograms.

Paper sections 3.2.2 and 3.3: because every chunk carries its own m-mer
histogram, the number of tuples any thread will produce for any destination
task is known *before* KmerGen runs.  That predetermines

* each thread's write offset into its task's single output buffer (so
  threads append without synchronization),
* the exact send/recv counts of the custom all-to-all (no handshake
  needed), and
* per-thread sub-ranges of each task's k-mer range (LocalSort's thread
  ranges).

Everything here is exact, not an estimate — the tests assert equality with
the counts the real KmerGen produces.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.index.fastqpart import FastqPartTable
from repro.util.validation import check_positive


def chunk_assignment(n_chunks: int, n_tasks: int, n_threads: int) -> np.ndarray:
    """Assign chunks to (task, thread) slots.

    Returns an ``(n_chunks,)`` int array of flattened slot ids
    ``task * n_threads + thread``.  Chunks are dealt round-robin so that a
    thread's chunks sample the whole file — the paper distributes the C
    chunks to threads "to enable parallel FASTQ file read operations" and
    relies on C >> P*T for balance.
    """
    check_positive("n_tasks", n_tasks)
    check_positive("n_threads", n_threads)
    slots = n_tasks * n_threads
    return (np.arange(n_chunks, dtype=np.int64) % slots).astype(np.int64)


def _bin_range_counts(hist: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Per chunk, tuples falling in each bin range: (C, len(edges)-1)."""
    cum = np.zeros((hist.shape[0], hist.shape[1] + 1), dtype=np.int64)
    np.cumsum(hist, axis=1, out=cum[:, 1:])
    return cum[:, edges[1:]] - cum[:, edges[:-1]]


def send_counts_matrix(
    table: FastqPartTable,
    assignment: np.ndarray,
    task_edges: np.ndarray,
    n_tasks: int,
    n_threads: int,
    pass_lo: int = 0,
    pass_hi: int | None = None,
) -> np.ndarray:
    """Tuples thread ``t`` of task ``p`` will send to task ``p'``.

    Returns an ``(n_tasks, n_threads, n_tasks)`` int64 array.  ``task_edges``
    are the ``n_tasks + 1`` m-mer-bin edges of the destination k-mer ranges;
    ``[pass_lo, pass_hi)`` restricts to the current pass's bin range (edges
    outside it contribute zero).
    """
    per_chunk = chunk_send_counts(table, task_edges, n_tasks, pass_lo, pass_hi)
    out = np.zeros((n_tasks, n_threads, n_tasks), dtype=np.int64)
    np.add.at(out, (assignment // n_threads, assignment % n_threads), per_chunk)
    return out


def chunk_send_counts(
    table: FastqPartTable,
    task_edges: np.ndarray,
    n_tasks: int,
    pass_lo: int = 0,
    pass_hi: int | None = None,
) -> np.ndarray:
    """Tuples chunk ``c`` will contribute to each destination task: (C, P).

    The per-chunk resolution of :func:`send_counts_matrix` — exact, from
    the chunk histograms alone.  This is what sizes the zero-copy
    destination blocks and fixes each chunk's write offsets before
    KmerGen runs a single instruction.
    """
    task_edges = np.asarray(task_edges, dtype=np.int64)
    if len(task_edges) != n_tasks + 1:
        raise ValueError(
            f"need {n_tasks + 1} task edges, got {len(task_edges)}"
        )
    if pass_hi is None:
        pass_hi = table.n_bins
    clipped = np.clip(task_edges, pass_lo, pass_hi)
    return _bin_range_counts(table.hist, clipped)


def recv_write_offsets(
    per_chunk: np.ndarray,
    assignment: np.ndarray,
    n_tasks: int,
    n_threads: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each chunk's write offset into every destination task's block.

    The receive-side layout of the zero-copy exchange is fixed up front:
    destination ``d``'s block holds tuples grouped by *source task* in
    rank order, and within a source task by chunk id — exactly the order
    the payload all-to-all produces (sources concatenated in rank order,
    each source's chunks appended in chunk order).  Given the exact
    ``per_chunk`` counts from :func:`chunk_send_counts`, every chunk's
    slice of every destination block is known in advance, so KmerGen
    writers never contend and never handshake.

    Returns ``(offsets, sender_splits, totals)``:

    * ``offsets`` — ``(C, P)``; ``offsets[c, d]`` is where chunk ``c``'s
      tuples for destination ``d`` begin in ``d``'s block,
    * ``sender_splits`` — ``(P + 1, P)``; ``sender_splits[p, d]`` is
      where source task ``p``'s region begins in ``d``'s block (row
      ``P`` holds the block ends),
    * ``totals`` — ``(P,)``; destination block sizes in tuples.
    """
    per_chunk = np.asarray(per_chunk, dtype=np.int64)
    n_chunks = per_chunk.shape[0]
    tasks = np.asarray(assignment, dtype=np.int64) // n_threads
    if len(tasks) != n_chunks:
        raise ValueError(
            f"assignment covers {len(tasks)} chunks, counts cover {n_chunks}"
        )
    # chunks in receive order: source task ascending, chunk id ascending
    order = np.lexsort((np.arange(n_chunks), tasks))
    ordered = per_chunk[order]
    csum = np.zeros_like(ordered)
    np.cumsum(ordered[:-1], axis=0, out=csum[1:])
    offsets = np.zeros_like(per_chunk)
    offsets[order] = csum

    by_task = np.zeros((n_tasks, per_chunk.shape[1]), dtype=np.int64)
    np.add.at(by_task, tasks, per_chunk)
    sender_splits = np.zeros((n_tasks + 1, per_chunk.shape[1]), dtype=np.int64)
    np.cumsum(by_task, axis=0, out=sender_splits[1:])
    totals = sender_splits[-1].copy()
    return offsets, sender_splits, totals

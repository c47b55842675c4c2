"""Message-passing accounting: the custom P-stage all-to-all.

Paper section 3.3: "We do not use MPI's Alltoallv collective due to the
limitation imposed by the sendcounts and recvcounts parameters (that they
need to be 32-bit signed integers).  Instead, we develop a custom
All-to-all approach using multiple point-to-point messages...  Our
All-to-all implementation has P stages.  In stage i, task p sends tuples
to task (p + i) mod P."

The tuples themselves move through the block plane
(:mod:`repro.runtime.transport`); this module walks exactly that schedule
(so tests can check the stage-by-stage pairing is contention-free: in
every stage each task sends one message and receives one message) and
accounts bytes per stage for the timing model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro import telemetry


def all_to_all_schedule(n_tasks: int) -> List[List[Tuple[int, int]]]:
    """The P-stage schedule as rounds of ``(sender, receiver)`` pairs.

    Stage 0 is the local self-"send" (kept explicit for accounting
    symmetry, zero wire bytes).  In stage i, p sends to (p + i) mod P.
    """
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    return [
        [(p, (p + stage) % n_tasks) for p in range(n_tasks)]
        for stage in range(n_tasks)
    ]


@dataclass
class AllToAllStats:
    """Byte accounting for one all-to-all exchange."""

    n_tasks: int
    n_stages: int = 0
    wire_bytes_total: int = 0
    #: per stage, the largest single message (stage time is set by it)
    max_message_bytes_per_stage: List[int] = field(default_factory=list)
    #: (P, P) matrix of bytes sent from p to p' (diagonal = local copies)
    bytes_matrix: np.ndarray | None = None
    n_messages: int = 0

    @property
    def max_bytes_sent_by_task(self) -> int:
        if self.bytes_matrix is None:
            return 0
        off_diag = self.bytes_matrix.copy()
        np.fill_diagonal(off_diag, 0)
        return int(off_diag.sum(axis=1).max())


def block_exchange_stats(counts: np.ndarray, tuple_bytes: int) -> AllToAllStats:
    """Stats for a zero-copy block exchange, from counts alone.

    Under the TupleBlock dataplane no payloads cross the wire — senders
    write tuples straight into offset-described views of the receiver's
    preallocated segment, and the (P, P) tuple-count matrix is known
    up front from the index tables.  This is exactly the accounting of
    the P-stage schedule for payloads of ``counts[p, d] * tuple_bytes``
    bytes, stage for stage, so the timing model and the differential
    tests see identical comm stats regardless of transport.
    """
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[0] != counts.shape[1]:
        raise ValueError(f"counts must be (P, P), got shape {counts.shape}")
    if tuple_bytes <= 0:
        raise ValueError(f"tuple_bytes must be positive, got {tuple_bytes}")
    n_tasks = counts.shape[0]
    stats = AllToAllStats(n_tasks=n_tasks)
    stats.bytes_matrix = counts.astype(np.int64) * tuple_bytes
    schedule = all_to_all_schedule(n_tasks)
    stats.n_stages = len(schedule)
    for pairs in schedule:
        stage_max = 0
        for sender, receiver in pairs:
            size = int(stats.bytes_matrix[sender, receiver])
            if sender != receiver:
                stats.wire_bytes_total += size
                stats.n_messages += 1
                stage_max = max(stage_max, size)
        stats.max_message_bytes_per_stage.append(stage_max)
    if telemetry.enabled():
        telemetry.add_counter("comm.bytes_moved", int(stats.bytes_matrix.sum()))
        telemetry.add_counter("comm.wire_bytes", stats.wire_bytes_total)
    return stats

"""Contracted MergeCC (paper section 5: "This step could be improved by
adopting the component graph contraction methods described in [16]"
— Iverson, Kamath, Karypis).

The baseline MergeCC ships each sender's full component array: ``4R``
bytes per message regardless of content.  But a task's local forest is
mostly *singletons* — it only unioned reads that co-occurred in its own
tuple share — so the informative part is the set of non-trivial
``(vertex, parent)`` pairs.  The contracted merge transmits exactly those
pairs (8 bytes each).  The same ceil(log2 P) tree applies; receivers fold
the pairs as edges, as before.

Wire volume: ``8 * (R - n_singletons)`` per message instead of ``4R`` —
a win whenever fewer than half the vertices are non-trivial, which is the
common case for the early rounds and for large P (each task sees ~1/P of
the tuples).  Later rounds transmit the *accumulated* non-trivial set, so
the advantage tapers exactly as contraction theory predicts; the ablation
benchmark measures the crossover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from repro.cc.dsf import DisjointSetForest
from repro.cc.mergecc import tree_merge_schedule


@dataclass
class ContractedMergeStats:
    """Byte accounting, comparable to MergeCCStats."""

    n_tasks: int = 1
    n_rounds: int = 0
    n_unions: int = 0
    bytes_communicated: int = 0
    baseline_bytes: int = 0  # what full-array MergeCC would have sent
    pairs_per_round: List[int] = field(default_factory=list)

    @property
    def compression_ratio(self) -> float:
        """Contracted bytes / baseline bytes (< 1 is a win)."""
        if self.baseline_bytes == 0:
            return 1.0
        return self.bytes_communicated / self.baseline_bytes


def nontrivial_pairs(parent: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The contracted representation: (vertex, parent) where parent != vertex."""
    parent = np.asarray(parent, dtype=np.int64)
    idx = np.flatnonzero(parent != np.arange(len(parent)))
    return idx, parent[idx]


def merge_component_arrays_contracted(
    parents: Sequence[np.ndarray],
) -> Tuple[np.ndarray, ContractedMergeStats]:
    """Tree merge transmitting only non-trivial pairs.

    Produces the identical partition to
    :func:`repro.cc.mergecc.merge_component_arrays` (tested), with byte
    accounting for both schemes.
    """
    if not parents:
        raise ValueError("need at least one component array")
    n = len(parents[0])
    for i, p in enumerate(parents):
        if len(p) != n:
            raise ValueError(
                f"component array {i} has length {len(p)}, expected {n}"
            )

    stats = ContractedMergeStats(n_tasks=len(parents))
    forests = [DisjointSetForest.from_parent_array(p) for p in parents]
    schedule = tree_merge_schedule(len(parents))
    stats.n_rounds = len(schedule)

    for pairs in schedule:
        round_pairs = 0
        for sender, receiver in pairs:
            us, vs = nontrivial_pairs(forests[sender].parent)
            round_pairs += len(us)
            stats.bytes_communicated += 8 * len(us)
            stats.baseline_bytes += 4 * n
            if len(us):
                unions, _, _ = forests[receiver].process_edges(us, vs)
                stats.n_unions += unions
        stats.pairs_per_round.append(round_pairs)

    return forests[0].parent.copy(), stats

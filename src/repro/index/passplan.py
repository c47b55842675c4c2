"""Multipass / range planning from the merHist histogram.

Paper section 3.1.1: "The histogram is used to partition the range of
integers spanned by k-mer values (k-mer range) for multipass and parallel
execution" — and section 3.7's memory model determines the fewest passes
that fit a per-task memory budget.

All ranges are expressed as half-open intervals of m-mer prefix *bins*;
nesting is pass range ⊇ per-task ranges ⊇ per-thread ranges, each level
balanced against the histogram so tuple counts are as even as possible
(this is what makes Figure 8's load balance flat for KmerGen/LocalSort/
LocalCC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.index.fastqpart import FastqPartTable
from repro.index.merhist import MerHist
from repro.runtime.work import task_memory
from repro.util.validation import check_positive

#: the planner's search bound on the pass count S
MAX_PASSES = 64


class BudgetTooSmall(ValueError):
    """No pass count up to :data:`MAX_PASSES` fits the per-task budget."""


def balanced_boundaries(
    counts: np.ndarray, n_parts: int, lo: int = 0, hi: int | None = None
) -> np.ndarray:
    """Split bins ``[lo, hi)`` into ``n_parts`` ranges of ~equal tuple mass.

    Returns ``n_parts + 1`` non-decreasing edges with ``edges[0] == lo`` and
    ``edges[-1] == hi``.  Greedy on the cumulative histogram: edge ``i`` is
    the first bin where the cumulative mass reaches ``i/n_parts`` of the
    range total.  A range is never split mid-bin (all occurrences of one
    k-mer share a bin, which is what keeps passes disjoint and filters
    local).
    """
    check_positive("n_parts", n_parts)
    counts = np.asarray(counts, dtype=np.int64)
    if hi is None:
        hi = len(counts)
    if not (0 <= lo <= hi <= len(counts)):
        raise ValueError(f"invalid bin range [{lo}, {hi}) for {len(counts)} bins")
    segment = counts[lo:hi]
    total = int(segment.sum())
    edges = np.empty(n_parts + 1, dtype=np.int64)
    edges[0], edges[-1] = lo, hi
    if total == 0 or n_parts == 1:
        # distribute empty/degenerate range by bin count
        edges[:] = np.ceil(np.linspace(lo, hi, n_parts + 1)).astype(np.int64)
        edges[0], edges[-1] = lo, hi
        return edges
    cum = np.cumsum(segment)
    targets = (np.arange(1, n_parts) * total) / n_parts
    inner = np.searchsorted(cum, targets, side="left") + 1 + lo
    edges[1:-1] = np.minimum(inner, hi)
    # enforce monotonicity (heavy single bins can collapse ranges to empty)
    np.maximum.accumulate(edges, out=edges)
    return edges


@dataclass
class PassSpec:
    """One I/O pass: its global bin range and the nested task/thread edges.

    * ``task_edges``: ``P + 1`` edges partitioning ``[bin_lo, bin_hi)`` into
      per-task k-mer ranges (ownership for the all-to-all).
    * ``thread_edges``: ``(P, T + 1)`` — task ``p``'s range subdivided for
      its ``T`` threads (LocalSort's thread ranges).
    """

    index: int
    bin_lo: int
    bin_hi: int
    tuples: int
    task_edges: np.ndarray
    thread_edges: np.ndarray

    def tuples_per_task(self, merhist: MerHist) -> np.ndarray:
        """Tuples each task owns in this pass (its kmerIn block): ``(P,)``."""
        cum = merhist.cumulative()
        return cum[self.task_edges[1:]] - cum[self.task_edges[:-1]]


@dataclass
class PassPlan:
    """The full multipass schedule for one (dataset, P, T, S) configuration.

    ``worst_tuples_per_task`` is the largest owner block of any pass (the
    max of :meth:`PassSpec.tuples_per_task`): where the pass planner and
    the run report evaluate the section 3.7 memory model.  Tasks split a
    pass at whole merHist bins, so it can exceed ``ceil(pass / P)``.
    """

    n_tasks: int
    n_threads: int
    m: int
    passes: List[PassSpec] = field(default_factory=list)
    worst_tuples_per_task: int = 0

    @property
    def n_passes(self) -> int:
        return len(self.passes)

    @property
    def total_tuples(self) -> int:
        return sum(p.tuples for p in self.passes)

    def validate_disjoint(self, n_bins: int) -> None:
        """Passes must tile ``[0, 4^m)`` without gaps or overlap."""
        expect = 0
        for spec in self.passes:
            if spec.bin_lo != expect:
                raise ValueError(
                    f"pass {spec.index} starts at bin {spec.bin_lo}, "
                    f"expected {expect}"
                )
            expect = spec.bin_hi
        if expect != n_bins:
            raise ValueError(f"passes end at bin {expect}, expected {n_bins}")


def plan_passes(
    merhist: MerHist,
    n_passes: int,
    n_tasks: int,
    n_threads: int,
) -> PassPlan:
    """Build the nested pass/task/thread ranges for a fixed pass count."""
    check_positive("n_passes", n_passes)
    check_positive("n_tasks", n_tasks)
    check_positive("n_threads", n_threads)
    counts = merhist.counts.astype(np.int64)
    pass_edges = balanced_boundaries(counts, n_passes)
    cum = merhist.cumulative()

    plan = PassPlan(n_tasks=n_tasks, n_threads=n_threads, m=merhist.m)
    for s in range(n_passes):
        lo, hi = int(pass_edges[s]), int(pass_edges[s + 1])
        task_edges = balanced_boundaries(counts, n_tasks, lo, hi)
        plan.worst_tuples_per_task = max(
            plan.worst_tuples_per_task, int(np.diff(cum[task_edges]).max())
        )
        thread_edges = np.empty((n_tasks, n_threads + 1), dtype=np.int64)
        for p in range(n_tasks):
            thread_edges[p] = balanced_boundaries(
                counts, n_threads, int(task_edges[p]), int(task_edges[p + 1])
            )
        plan.passes.append(
            PassSpec(
                index=s,
                bin_lo=lo,
                bin_hi=hi,
                tuples=int(cum[hi] - cum[lo]),
                task_edges=task_edges,
                thread_edges=thread_edges,
            )
        )
    plan.validate_disjoint(merhist.n_bins)
    return plan


def passes_for_memory_budget(
    merhist: MerHist,
    table: FastqPartTable,
    n_tasks: int,
    n_threads: int,
    tuple_bytes: int,
    memory_budget_per_task: int,
) -> int:
    """Fewest passes S whose section 3.7 memory model fits the budget.

    The model (:func:`repro.runtime.work.task_memory`) counts the index
    tables, the T FASTQ chunk buffers, kmerOut + kmerIn and p + p', and is
    evaluated at S's largest owner block
    (:attr:`PassPlan.worst_tuples_per_task`), so a skewed histogram is
    handled and the run's own report equals what was accepted here.

    Raises ``ValueError`` for a non-positive budget or ``tuple_bytes``,
    and :class:`BudgetTooSmall` when no S up to :data:`MAX_PASSES` fits.
    The worst pass need not shrink monotonically with S, so every S is
    tried before giving up.
    """
    check_positive("memory_budget_per_task", memory_budget_per_task)
    check_positive("tuple_bytes", tuple_bytes)
    table_bytes = table.nbytes + merhist.nbytes

    def need(tuples_per_task_pass: int) -> int:
        return task_memory(
            table_bytes,
            table.peak_chunk_bytes,
            n_threads,
            table.total_reads,
            tuple_bytes,
            tuples_per_task_pass,
        ).total

    needs = []
    for s in range(1, MAX_PASSES + 1):
        # the thread split does not move the task edges: one thread will do
        needs.append(need(plan_passes(merhist, s, n_tasks, 1).worst_tuples_per_task))
        if needs[-1] <= memory_budget_per_task:
            return s
    raise BudgetTooSmall(
        f"no pass count up to {MAX_PASSES} fits the per-task memory budget "
        f"of {memory_budget_per_task} bytes: the fixed terms (index "
        f"tables, {n_threads} FASTQ chunk buffers, p and p') alone take "
        f"{need(0)} bytes, and the least any pass count needs is {min(needs)} "
        f"bytes"
    )


def spill_schedule(
    plan: PassPlan,
    tuple_bytes: int,
    memory_budget_per_task: int | None,
    mode: str = "auto",
) -> List[bool]:
    """Decide, per pass, whether tuples go through spill files or RAM.

    The planner decision rule of the out-of-core mode
    (:mod:`repro.runtime.spill`).  The quantity compared against the
    budget is what in-memory execution would actually keep resident for
    pass ``s``: every owner task's destination block at once —
    ``tuple_bytes * spec.tuples`` — because KmerGen scatters into all P
    blocks and they stay mapped until LocalCC drains them.  Spilling
    replaces that with at most one owner's block
    (``~tuple_bytes * spec.tuples / P``) resident per worker at a time.

    * ``"never"``: all in-memory (the historical behavior);
    * ``"always"``: every pass spills;
    * ``"auto"``: pass ``s`` spills iff a budget is configured and the
      pass's in-memory residency exceeds it.  With no budget, ``auto``
      never spills — out-of-core is opt-in via the budget, mirroring how
      ``n_passes=None`` makes the budget drive the pass count.

    Returns one decision per pass, aligned with ``plan.passes``.
    """
    from repro.runtime.spill import SPILL_NAMES

    if mode not in SPILL_NAMES:
        raise ValueError(f"spill must be one of {SPILL_NAMES}, got {mode!r}")
    check_positive("tuple_bytes", tuple_bytes)
    if mode == "never":
        return [False] * plan.n_passes
    if mode == "always":
        return [True] * plan.n_passes
    if memory_budget_per_task is None:
        return [False] * plan.n_passes
    check_positive("memory_budget_per_task", memory_budget_per_task)
    return [
        tuple_bytes * spec.tuples > memory_budget_per_task
        for spec in plan.passes
    ]

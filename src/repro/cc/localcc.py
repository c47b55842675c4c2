"""LocalCC: connected components from sorted tuple runs (paper section 3.5).

After LocalSort, tuples sharing a canonical k-mer are adjacent.  Each run of
``f`` tuples contributes ``f - 1`` star edges (first read of the run joined
to every other), optionally gated by the k-mer frequency filter (section
4.4).  Edges are folded into the task-local disjoint-set forest — the read
graph itself is never constructed, which is the memory-efficiency point of
the union-find design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro import telemetry
from repro.cc.dsf import DisjointSetForest
from repro.kmers.engine import KmerTuples
from repro.kmers.filter import FrequencyFilter
from repro.sort.validate import is_sorted_kmers


@dataclass
class LocalCCStats:
    """Work accounting for one LocalCC invocation."""

    n_tuples: int = 0
    n_runs: int = 0
    n_runs_filtered: int = 0
    n_edges: int = 0
    n_unions: int = 0
    n_find_steps: int = 0  # parent entries rewritten by pointer jumping
    n_iterations: int = 0  # hook rounds of the slowest partition

    def merge(self, other: "LocalCCStats") -> "LocalCCStats":
        self.n_tuples += other.n_tuples
        self.n_runs += other.n_runs
        self.n_runs_filtered += other.n_runs_filtered
        self.n_edges += other.n_edges
        self.n_unions += other.n_unions
        self.n_find_steps += other.n_find_steps
        self.n_iterations = max(self.n_iterations, other.n_iterations)
        return self


def edges_from_sorted_runs(
    tuples: KmerTuples,
    kfilter: FrequencyFilter | None = None,
) -> Tuple[np.ndarray, np.ndarray, LocalCCStats]:
    """Star edges of the implicit read graph from *sorted* tuples.

    Returns ``(us, vs, stats)`` with self-loops removed.  ``stats`` has the
    run/filter accounting filled in (union counts are added later by
    :func:`local_connected_components`).
    """
    stats = LocalCCStats(n_tuples=len(tuples))
    if len(tuples) == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64), stats)
    if not is_sorted_kmers(tuples.kmers):
        raise ValueError("edges_from_sorted_runs requires k-mer-sorted tuples")

    bounds = tuples.kmers.run_boundaries()
    counts = np.diff(bounds)
    stats.n_runs = len(counts)

    keep = counts > 1  # singleton runs yield no edges
    if kfilter is not None and not kfilter.is_identity:
        accepted = kfilter.accept_counts(counts)
        stats.n_runs_filtered = int((~accepted & keep).sum())
        keep &= accepted
    starts = bounds[:-1][keep]
    lens = counts[keep]
    if len(starts) == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64), stats)

    ids = tuples.read_ids.astype(np.int64)
    firsts = ids[starts]
    us = np.repeat(firsts, lens - 1)
    # every non-first position of each kept run, in order
    in_run = np.repeat(keep, counts)
    in_run[bounds[:-1]] = False
    vs = ids[in_run]
    if len(us) != len(vs):
        raise AssertionError(
            f"edge construction mismatch: {len(us)} u's vs {len(vs)} v's"
        )
    nontrivial = us != vs
    us, vs = us[nontrivial], vs[nontrivial]
    stats.n_edges = len(us)
    return us, vs, stats


def local_connected_components(
    tuples: KmerTuples,
    forest: DisjointSetForest,
    kfilter: FrequencyFilter | None = None,
) -> LocalCCStats:
    """Fold one sorted tuple partition into ``forest`` (Algorithm 1's
    outcome, see :meth:`DisjointSetForest.process_edges`)."""
    us, vs, stats = edges_from_sorted_runs(tuples, kfilter)
    if len(us):
        unions, find_steps, iters = forest.process_edges(us, vs)
        stats.n_unions = unions
        stats.n_find_steps = find_steps
        stats.n_iterations = iters
    return stats


def fold_block_partitions(
    block,
    counts: np.ndarray,
    forest: DisjointSetForest,
    kfilter: FrequencyFilter | None = None,
) -> Tuple[LocalCCStats, np.ndarray]:
    """Fold the sorted thread ranges of a
    :class:`~repro.runtime.buffers.TupleBlock` into ``forest``.

    ``counts`` are the per-thread range lengths LocalSort read off the
    sorted block; range ``t`` is consumed as a zero-copy view
    ``block.view(starts[t], starts[t+1])`` in thread-rank order — the
    deterministic union sequence the engines' bit-identity rests on.
    Returns the merged :class:`LocalCCStats` and the per-thread edge
    counts.
    """
    stats = LocalCCStats()
    edges_by_thread = np.zeros(len(counts), dtype=np.int64)
    retries = 0
    start = 0
    for t, count in enumerate(counts):
        end = start + int(count)
        part_stats = local_connected_components(
            block.view(start, end), forest, kfilter
        )
        stats.merge(part_stats)
        edges_by_thread[t] = part_stats.n_edges
        retries += max(0, part_stats.n_iterations - 1)
        start = end
    if telemetry.enabled():
        telemetry.add_counter("cc.unions", stats.n_unions)
        telemetry.add_counter("cc.find_steps", stats.n_find_steps)
        telemetry.add_counter("cc.retries", retries)
    return stats, edges_by_thread


def map_ids_to_components(
    ids: np.ndarray, forest: DisjointSetForest
) -> np.ndarray:
    """LocalCC-Opt (section 3.5.1): replace read ids by their current
    component root before re-enumeration.

    "Since the number of components is much smaller than the number of
    reads, the random accesses to the p array are limited to a lower number
    of locations" — this mapping is what realizes that locality gain on
    later passes; correctness is unaffected because ``root(read)`` and the
    read itself are by construction in the same component.
    """
    roots = forest.find_many(np.asarray(ids, dtype=np.int64))
    return roots.astype(np.uint32)

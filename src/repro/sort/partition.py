"""Parallel range partitioning of tuples (LocalSort stage 1).

Paper section 3.4: received tuples are partitioned into ``T`` disjoint
k-mer ranges so each partition can be sorted concurrently.  Ranges are
expressed as m-mer-prefix *bin* boundaries (the same bins as merHist), so
partition membership is a single vectorized ``searchsorted`` over the bin
id of each tuple.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.kmers.engine import KmerTuples


def _check_edges(
    edges: np.ndarray, m: int, span: Tuple[int, int] | None
) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.int64)
    if edges.ndim != 1 or len(edges) < 2:
        raise ValueError("edges must have at least two entries")
    span_lo, span_hi = span if span is not None else (0, 1 << (2 * m))
    if edges[0] != span_lo or edges[-1] != span_hi:
        raise ValueError(
            f"edges must span [{span_lo}, {span_hi}], got "
            f"[{edges[0]}, {edges[-1]}]"
        )
    if np.any(np.diff(edges) < 0):
        raise ValueError("edges must be non-decreasing")
    return edges


def _partition_order(
    tuples: KmerTuples, m: int, edges: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable gather order grouping tuples by partition, plus counts."""
    n_parts = len(edges) - 1
    bins = tuples.kmers.mmer_prefix(m).astype(np.int64)
    part = np.searchsorted(edges, bins, side="right") - 1
    # Tuples in the last bin of the last partition: searchsorted puts
    # bin == edges[-1] out of range only if a bin equals 4^m, impossible.
    part = np.clip(part, 0, n_parts - 1)
    counts = np.bincount(part, minlength=n_parts).astype(np.int64)
    order = np.argsort(part, kind="stable")
    return order, counts


def range_partition_block(
    block,
    length: int,
    m: int,
    edges: np.ndarray,
    span: Tuple[int, int] | None = None,
) -> np.ndarray:
    """Range-partition a :class:`~repro.runtime.buffers.TupleBlock` in
    place over its backing.

    The stable partition permutation is applied directly to the block's
    columns (:meth:`TupleBlock.permute`), so under the shared-memory
    dataplane the scatter happens inside the destination segment — no
    per-partition copies leave the block.  After the call, partition
    ``t`` occupies ``block.view(starts[t], starts[t+1])`` where
    ``starts`` is the exclusive cumsum of the returned counts.  Each
    partition keeps its tuples in input order (the gather is stable).
    """
    edges = _check_edges(edges, m, span)
    n_parts = len(edges) - 1
    if length == 0:
        return np.zeros(n_parts, dtype=np.int64)
    order, counts = _partition_order(block.view(0, length), m, edges)
    block.permute(order, length)
    return counts

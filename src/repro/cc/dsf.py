"""Disjoint-set forest with the paper's union-by-index policy, vectorised.

Paper section 3.5, Algorithm 1: *Union* uses union-by-index — "the parent
pointer of the root element with lower index is set to the root element
with higher index" — so every root is the maximum read index of its
component, whatever order the edges arrive in.  That is what lets
:meth:`DisjointSetForest.process_edges` fold a whole edge list at once:
hook every smaller root under its largest neighbouring root, pointer-jump
to a fixpoint, repeat until no edge crosses two roots.  The roots come out
exactly as the paper's per-edge loop (path splitting, deferred
verification) leaves them; only the parent arrays differ, being flat.  The
per-edge loop itself is kept as the test oracle.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _jump_to_fixpoint(parent: np.ndarray) -> np.ndarray:
    """Return a flat copy of ``parent``: every entry points at its root.

    True pointer doubling on the whole mapping: composing the parent
    function with itself halves every chain's depth per round, so a forest
    of n nodes converges within log2(n) + 1 rounds.  A cycle either never
    settles within that bound or settles on entries that are not roots
    (a cycle of power-of-two length composes to the identity); both raise.
    """
    p = parent
    for _ in range(max(len(parent), 2).bit_length() + 2):
        nxt = p[p]
        if np.array_equal(nxt, p):
            if not np.array_equal(parent[nxt], nxt):
                break
            return nxt
        p = nxt
    raise ValueError("parent array contains a cycle")


class DisjointSetForest:
    """Array-backed union-find over vertices ``0..n-1``."""

    __slots__ = ("parent",)

    def __init__(self, n_vertices: int) -> None:
        if n_vertices < 0:
            raise ValueError(f"n_vertices must be >= 0, got {n_vertices}")
        # "Initially, the parent of each read (vertex) is set to point to
        # itself."
        self.parent = np.arange(n_vertices, dtype=np.int64)

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    @classmethod
    def wrap(cls, parent: np.ndarray) -> "DisjointSetForest":
        """Adopt ``parent`` *without copying or validating*.

        Mutations through the forest write straight into ``parent``.  This
        is the executor-worker constructor: the pipeline ships a task's
        parent array to a worker (pickled for the process engine, by
        reference for the serial engine) and wraps it on arrival, so both
        engines run LocalCC against byte-identical forest state.  Use
        :meth:`from_parent_array` for untrusted input.
        """
        parent = np.ascontiguousarray(parent, dtype=np.int64)
        forest = cls.__new__(cls)
        forest.parent = parent
        return forest

    @classmethod
    def from_parent_array(cls, parent: np.ndarray) -> "DisjointSetForest":
        """Adopt an existing component array (e.g. one received in MergeCC).

        Validates that the array is a forest: every chain terminates.
        """
        parent = np.ascontiguousarray(parent, dtype=np.int64)
        n = len(parent)
        if n and (parent.min() < 0 or parent.max() >= n):
            raise ValueError("parent entries out of range")
        forest = cls.__new__(cls)
        forest.parent = parent.copy()
        _jump_to_fixpoint(parent)  # raises on a cycle
        return forest

    def connected(self, u: int, v: int) -> bool:
        ru, rv = self.find_many(np.array([u, v]))
        return bool(ru == rv)

    def find_many(self, xs: np.ndarray, compress: bool = False) -> np.ndarray:
        """Roots of many vertices by pointer jumping (no mutation unless
        ``compress``).

        Used by LocalCC-Opt (map read ids to component ids before
        re-enumeration) and by final relabeling; jump count is
        O(log depth) gathers over the whole array.
        """
        xs = np.asarray(xs, dtype=np.int64)
        roots = _jump_to_fixpoint(self.parent)[xs]
        if compress:
            self.parent[xs] = roots
        return roots

    def roots(self) -> np.ndarray:
        """Root of every vertex (vectorized full-array find)."""
        return _jump_to_fixpoint(self.parent)

    def n_components(self) -> int:
        return int(np.count_nonzero(self.parent == np.arange(self.n_vertices)))

    def process_edges(
        self, us: np.ndarray, vs: np.ndarray
    ) -> Tuple[int, int, int]:
        """Fold an edge list into the forest with Algorithm 1's outcome.

        Returns ``(n_unions, n_find_steps, n_rounds)``: roots removed (each
        of Algorithm 1's unions removes exactly one), parent entries
        rewritten by pointer jumping, and hook rounds run.  Afterwards the
        forest is flat — every entry points at its component's root, the
        maximum index among the roots it merged — and ``parent`` is
        updated in place, so a :meth:`wrap`-ped array sees the result.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError("edge endpoint arrays differ in length")
        flat = _jump_to_fixpoint(self.parent)
        find_steps = int(np.count_nonzero(flat != self.parent))
        roots_before = self.n_components()
        ru, rv = flat[us], flat[vs]
        rounds = 0
        while True:
            cross = ru != rv
            if not cross.any():
                break
            ru, rv = ru[cross], rv[cross]
            lo, hi = np.minimum(ru, rv), np.maximum(ru, rv)
            # union-by-index, all at once: each smaller root goes under
            # its largest neighbouring root, so no cycle can form
            np.maximum.at(flat, lo, hi)
            jumped = _jump_to_fixpoint(flat)
            find_steps += int(np.count_nonzero(jumped != flat))
            flat = jumped
            ru, rv = flat[lo], flat[hi]
            rounds += 1
        self.parent[:] = flat
        return roots_before - self.n_components(), find_steps, rounds

    def copy(self) -> "DisjointSetForest":
        clone = DisjointSetForest.__new__(DisjointSetForest)
        clone.parent = self.parent.copy()
        return clone

    def absorb_parent_array(self, other_parent: np.ndarray) -> int:
        """Treat another task's component array as edges (MergeCC kernel).

        Paper section 3.6: "the i-th element is treated as an edge from
        vertex i to vertex p'(i)".  Returns the number of unions performed.
        """
        other_parent = np.asarray(other_parent, dtype=np.int64)
        if len(other_parent) != self.n_vertices:
            raise ValueError(
                f"component array length {len(other_parent)} != "
                f"{self.n_vertices} vertices"
            )
        nontrivial = np.flatnonzero(other_parent != np.arange(len(other_parent)))
        if len(nontrivial) == 0:
            return 0
        unions, _, _ = self.process_edges(nontrivial, other_parent[nontrivial])
        return unions

"""Algorithm 1 as the paper writes it: the scalar test oracle.

Paper section 3.5: *Find* uses path splitting (Tarjan & van Leeuwen's
one-pass variant); *Union* uses union-by-index — "the parent pointer of the
root element with lower index is set to the root element with higher index"
— because, unlike union-by-rank/size, it cannot introduce cycles when edges
are processed concurrently.  Threads run without synchronization; edges
whose union might have raced are buffered and re-verified in a next
iteration.  Races cannot occur in one Python thread, but the
deferred-verification loop is kept faithfully so the oracle is the paper's
algorithm, not a simplification.

:class:`repro.cc.dsf.DisjointSetForest` must leave exactly the roots and
union count this per-edge loop does; the tests hold it to that.

The second oracle, :func:`reference_components_networkx`, builds the read
graph *explicitly* (what METAPREP avoids doing), so the tests can certify
that the implicit pipeline — enumerate, sort, LocalCC, MergeCC, over any
task/thread/pass decomposition — finds exactly the same partition of
reads.  :func:`partition_as_frozensets` puts a pipeline's parent array in
the oracle's canonical form.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cc.dsf import DisjointSetForest
from repro.kmers.engine import enumerate_canonical_kmers
from repro.kmers.filter import FrequencyFilter
from repro.seqio.records import ReadBatch


class ReferenceForest:
    """Per-edge union-find over vertices ``0..n-1`` (Algorithm 1)."""

    def __init__(self, n_vertices: int) -> None:
        self.parent = np.arange(n_vertices, dtype=np.int64)

    def find(self, x: int) -> int:
        """Root of ``x`` with path splitting: every visited node is
        re-pointed at its grandparent, and the walk continues through the
        *old* parent so every node on the path is updated (Tarjan & van
        Leeuwen's one-pass splitting — distinct from path halving, which
        skips every other node)."""
        p = self.parent
        while True:
            px = p[x]
            if px == x:
                return x
            ppx = p[px]
            if ppx == px:
                return int(px)
            p[x] = ppx  # path splitting
            x = int(px)

    def union(self, root_u: int, root_v: int) -> int:
        """Union-by-index of two *roots*; returns the surviving root.

        The lower-index root is attached beneath the higher-index one.
        """
        if root_u == root_v:
            return root_u
        if root_u < root_v:
            self.parent[root_u] = root_v
            return root_v
        self.parent[root_v] = root_u
        return root_u

    def roots(self) -> np.ndarray:
        return np.array([self.find(v) for v in range(len(self.parent))], np.int64)

    def n_components(self) -> int:
        return int(np.count_nonzero(self.parent == np.arange(len(self.parent))))

    def process_edges(
        self, us: np.ndarray, vs: np.ndarray
    ) -> Tuple[int, int, int]:
        """Fold an edge list into the forest per Algorithm 1.

        Returns ``(n_unions, n_find_steps, n_iterations)``.  Edges that
        trigger a Union are buffered into ``E_out`` and re-verified in the
        next iteration until no edge produces further unions — the paper's
        guard against concurrent lost updates.  The paper observes "the
        overall time is dominated by the time for the first iteration";
        the returned iteration count lets tests confirm the loop converges
        in two iterations when uncontended.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape:
            raise ValueError("edge endpoint arrays differ in length")
        parent = self.parent
        n_unions = 0
        find_steps = 0
        iterations = 0

        e_in_u, e_in_v = us, vs
        while len(e_in_u):
            iterations += 1
            out_u = []
            out_v = []
            for u, v in zip(e_in_u.tolist(), e_in_v.tolist()):
                # inline find with path splitting (hot loop)
                x = u
                while True:
                    px = parent[x]
                    if px == x:
                        break
                    ppx = parent[px]
                    if ppx == px:
                        x = px
                        break
                    parent[x] = ppx
                    x = px
                    find_steps += 1
                root_u = x
                x = v
                while True:
                    px = parent[x]
                    if px == x:
                        break
                    ppx = parent[px]
                    if ppx == px:
                        x = px
                        break
                    parent[x] = ppx
                    x = px
                    find_steps += 1
                root_v = x
                if root_u != root_v:
                    if root_u < root_v:
                        parent[root_u] = root_v
                    else:
                        parent[root_v] = root_u
                    n_unions += 1
                    out_u.append(u)
                    out_v.append(v)
            if not out_u:
                break
            # E_in <- E_out: re-verify edges whose union may have raced.
            e_in_u = np.asarray(out_u, dtype=np.int64)
            e_in_v = np.asarray(out_v, dtype=np.int64)
            # On re-verification the roots now coincide, so the loop
            # terminates after one extra quiet iteration (or immediately
            # starts another round if a racing thread undid the work --
            # impossible here, guaranteed converging regardless).
            nxt_u, nxt_v = [], []
            for u, v in zip(e_in_u.tolist(), e_in_v.tolist()):
                if self.find(u) != self.find(v):
                    nxt_u.append(u)
                    nxt_v.append(v)
            if not nxt_u:
                break
            e_in_u = np.asarray(nxt_u, dtype=np.int64)
            e_in_v = np.asarray(nxt_v, dtype=np.int64)
        return n_unions, find_steps, iterations


def build_read_graph(batch: ReadBatch, k: int, kfilter: FrequencyFilter | None = None):
    """Explicit read graph (a ``networkx.Graph``): vertices are global read
    ids; an edge joins two reads sharing a canonical k-mer whose total
    frequency passes ``kfilter``."""
    import networkx as nx

    tuples = enumerate_canonical_kmers(batch, k)
    graph = nx.Graph()
    graph.add_nodes_from(np.unique(batch.read_ids).tolist())
    if len(tuples) == 0:
        return graph
    s = tuples.take(tuples.kmers.argsort())
    bounds = s.kmers.run_boundaries()
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        if kfilter is not None and not kfilter.accepts(hi - lo):
            continue
        members = np.unique(s.read_ids[lo:hi]).tolist()
        graph.add_edges_from((members[0], other) for other in members[1:])
    return graph


def reference_components_networkx(
    batch: ReadBatch, k: int, kfilter: FrequencyFilter | None = None
) -> List[frozenset]:
    """Connected components of the explicit read graph, as frozensets of
    global read ids, sorted descending by size then by min id."""
    import networkx as nx

    graph = build_read_graph(batch, k, kfilter)
    comps = [frozenset(int(v) for v in comp) for comp in nx.connected_components(graph)]
    return sorted(comps, key=lambda c: (-len(c), min(c)))


def partition_as_frozensets(parent: np.ndarray, active: np.ndarray) -> List[frozenset]:
    """Partition induced by a parent array, restricted to ``active`` vertex
    ids, in the same canonical order as :func:`reference_components_networkx`."""
    forest = DisjointSetForest.from_parent_array(parent)
    active = np.unique(np.asarray(active, dtype=np.int64))
    roots = forest.find_many(active)
    groups: Dict[int, List[int]] = {}
    for vid, root in zip(active.tolist(), roots.tolist()):
        groups.setdefault(root, []).append(vid)
    comps = [frozenset(v) for v in groups.values()]
    return sorted(comps, key=lambda c: (-len(c), min(c)))

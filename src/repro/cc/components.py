"""Component labeling, statistics, and the networkx reference oracle.

The oracle builds the read graph *explicitly* (what METAPREP avoids doing)
and is used by the test suite to certify that the implicit pipeline —
enumerate, sort, LocalCC, MergeCC, over any task/thread/pass decomposition —
produces exactly the same partition of reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List

import numpy as np

from repro.cc.dsf import DisjointSetForest
from repro.kmers.engine import enumerate_canonical_kmers
from repro.kmers.filter import FrequencyFilter
from repro.seqio.records import ReadBatch

if TYPE_CHECKING:
    import networkx as nx


def compact_labels(parent: np.ndarray) -> np.ndarray:
    """Relabel a parent array into dense component ids ``0..n_comp-1``.

    Labels are assigned in increasing root order, so the labeling is a
    canonical form: two parent arrays describe the same partition iff their
    compact labelings are identical.
    """
    forest = DisjointSetForest.from_parent_array(parent)
    roots = forest.roots()
    _, labels = np.unique(roots, return_inverse=True)
    return labels.astype(np.int64)


def component_sizes(parent: np.ndarray) -> np.ndarray:
    """Sizes of all components, descending."""
    labels = compact_labels(parent)
    sizes = np.bincount(labels)
    return np.sort(sizes)[::-1].astype(np.int64)


@dataclass
class ComponentSummary:
    """Partition statistics reported by the pipeline (Table 7 inputs)."""

    n_reads: int
    n_components: int
    largest_component_size: int
    largest_component_fraction: float
    singleton_components: int
    size_histogram: Dict[int, int]

    @property
    def largest_component_percent(self) -> float:
        """Percentage form, matching Table 7's 'LC size (% Reads)'."""
        return 100.0 * self.largest_component_fraction


def summarize_components(parent: np.ndarray) -> ComponentSummary:
    """Partition statistics of a parent array (sizes, LC share, histogram)."""
    sizes = component_sizes(parent)
    n = int(len(parent))
    if len(sizes) == 0:
        return ComponentSummary(0, 0, 0, 0.0, 0, {})
    hist: Dict[int, int] = {}
    for s in sizes.tolist():
        hist[s] = hist.get(s, 0) + 1
    largest = int(sizes[0])
    return ComponentSummary(
        n_reads=n,
        n_components=len(sizes),
        largest_component_size=largest,
        largest_component_fraction=largest / n if n else 0.0,
        singleton_components=int((sizes == 1).sum()),
        size_histogram=hist,
    )


def build_read_graph(
    batch: ReadBatch,
    k: int,
    kfilter: FrequencyFilter | None = None,
) -> nx.Graph:
    """Explicit read graph: vertices are global read ids; an edge joins two
    reads sharing a canonical k-mer whose total frequency passes ``kfilter``.

    Quadratic-ish and memory hungry by design — reference only (and the
    only user of networkx, a test-extra dependency imported on demand so
    ``metaprep run`` never pays for it).
    """
    import networkx as nx

    tuples = enumerate_canonical_kmers(batch, k)
    graph = nx.Graph()
    graph.add_nodes_from(np.unique(batch.read_ids).tolist())
    if len(tuples) == 0:
        return graph
    order = tuples.kmers.argsort()
    s = tuples.take(order)
    bounds = s.kmers.run_boundaries()
    for i in range(len(bounds) - 1):
        lo, hi = int(bounds[i]), int(bounds[i + 1])
        freq = hi - lo
        if kfilter is not None and not kfilter.accepts(freq):
            continue
        members = np.unique(s.read_ids[lo:hi])
        first = int(members[0])
        for other in members[1:].tolist():
            graph.add_edge(first, int(other))
    return graph


def reference_components_networkx(
    batch: ReadBatch,
    k: int,
    kfilter: FrequencyFilter | None = None,
) -> List[frozenset]:
    """Connected components of the explicit read graph, as frozensets of
    global read ids, sorted descending by size then by min id."""
    import networkx as nx

    graph = build_read_graph(batch, k, kfilter)
    comps = [frozenset(int(v) for v in comp) for comp in nx.connected_components(graph)]
    return sorted(comps, key=lambda c: (-len(c), min(c)))


def partition_as_frozensets(parent: np.ndarray, active: np.ndarray) -> List[frozenset]:
    """Partition induced by a parent array, restricted to ``active`` vertex
    ids, in the same canonical order as
    :func:`reference_components_networkx`."""
    forest = DisjointSetForest.from_parent_array(parent)
    active = np.unique(np.asarray(active, dtype=np.int64))
    roots = forest.find_many(active)
    groups: Dict[int, List[int]] = {}
    for vid, root in zip(active.tolist(), roots.tolist()):
        groups.setdefault(root, []).append(vid)
    comps = [frozenset(v) for v in groups.values()]
    return sorted(comps, key=lambda c: (-len(c), min(c)))

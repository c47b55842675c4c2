"""Graph cleaning: tip removal and bubble popping.

The standard error-correction passes every de Bruijn assembler (MEGAHIT
included) runs between graph construction and unitig output:

* a **tip** is a short dead-end chain — the residue of sequencing errors
  near read ends that survived the solidity filter;
* a **bubble** is a pair of short parallel chains between the same two
  nodes — the residue of an internal error (or a SNP between strains);
  the lighter branch (lower mean k-mer multiplicity) is removed.

Both operate on unitig *chains* so a whole spurious path goes at once;
cleaning iterates to a fixed point because removing a tip can linearize a
junction and expose another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.assembly.graph import DeBruijnGraph
from repro.util.validation import check_positive


@dataclass
class Chain:
    """A maximal non-branching edge path."""

    edges: List[int]
    start_node: int
    end_node: int

    def __len__(self) -> int:
        return len(self.edges)


@dataclass
class CleaningStats:
    """What :func:`clean_graph` removed, and in how many rounds."""

    tips_removed: int = 0
    bubbles_popped: int = 0
    edges_removed: int = 0
    rounds: int = 0


def unitig_chains(graph: DeBruijnGraph) -> List[Chain]:
    """Decompose the graph's edges into maximal non-branching chains."""
    n_nodes = graph.n_nodes
    n_edges = graph.n_edges
    if n_edges == 0:
        return []
    out_deg = graph.out_degree()
    in_deg = graph.in_degree()
    through = (out_deg == 1) & (in_deg == 1)

    order = np.argsort(graph.edge_src, kind="stable")
    src_sorted = graph.edge_src[order]
    first_edge = np.searchsorted(src_sorted, np.arange(n_nodes))
    visited = np.zeros(n_edges, dtype=bool)
    chains: List[Chain] = []

    def walk(start_edge: int) -> Chain:
        edges = []
        e = start_edge
        while True:
            visited[e] = True
            edges.append(e)
            nxt = int(graph.edge_dst[e])
            if not through[nxt]:
                break
            e2 = int(order[first_edge[nxt]])
            if visited[e2]:
                break
            e = e2
        return Chain(
            edges=edges,
            start_node=int(graph.edge_src[start_edge]),
            end_node=int(graph.edge_dst[edges[-1]]),
        )

    start_nodes = np.flatnonzero(~through & (out_deg > 0))
    for v in start_nodes:
        lo = int(first_edge[v])
        hi = int(first_edge[v + 1]) if v + 1 < n_nodes else n_edges
        for j in range(lo, hi):
            e = int(order[j])
            if not visited[e]:
                chains.append(walk(e))
    for e in range(n_edges):
        if not visited[e]:
            chains.append(walk(e))
    return chains


def _drop_edges(graph: DeBruijnGraph, drop: np.ndarray) -> DeBruijnGraph:
    keep = np.ones(graph.n_edges, dtype=bool)
    keep[drop] = False
    return DeBruijnGraph(
        k=graph.k,
        nodes=graph.nodes,
        edge_src=graph.edge_src[keep],
        edge_dst=graph.edge_dst[keep],
        edge_base=graph.edge_base[keep],
        edge_count=graph.edge_count[keep],
    )


def remove_tips(
    graph: DeBruijnGraph, max_tip_edges: int | None = None
) -> Tuple[DeBruijnGraph, int]:
    """Remove dead-end chains of at most ``max_tip_edges`` edges.

    Default threshold: ``2 * k`` edges, the customary "shorter than two
    k-mers of sequence" rule.  Returns (new graph, tips removed).
    """
    if max_tip_edges is None:
        max_tip_edges = 2 * graph.k
    check_positive("max_tip_edges", max_tip_edges)
    out_deg = graph.out_degree()
    in_deg = graph.in_degree()
    drop: List[int] = []
    tips = 0
    for chain in unitig_chains(graph):
        if len(chain) > max_tip_edges:
            continue
        dead_start = in_deg[chain.start_node] == 0
        dead_end = out_deg[chain.end_node] == 0
        # a tip dangles at exactly one side (both sides dead = an isolated
        # chain, i.e. a whole tiny contig -- keep those)
        if dead_start != dead_end:
            drop.extend(chain.edges)
            tips += 1
    if not drop:
        return graph, 0
    return _drop_edges(graph, np.asarray(drop)), tips


def pop_bubbles(graph: DeBruijnGraph) -> Tuple[DeBruijnGraph, int]:
    """Pop simple bubbles: parallel chains sharing (start, end) nodes.

    Among each parallel group the chain with the highest mean edge count
    survives (ties broken deterministically by edge ids); the rest are
    removed.  Returns (new graph, bubbles popped).
    """
    groups = {}
    for chain in unitig_chains(graph):
        key = (chain.start_node, chain.end_node)
        groups.setdefault(key, []).append(chain)
    drop: List[int] = []
    popped = 0
    for (u, v), chains in groups.items():
        if len(chains) < 2 or u == v:
            continue
        def weight(c: Chain) -> tuple:
            return (
                float(np.mean(graph.edge_count[c.edges])),
                -min(c.edges),
            )
        chains_sorted = sorted(chains, key=weight, reverse=True)
        for loser in chains_sorted[1:]:
            drop.extend(loser.edges)
            popped += 1
    if not drop:
        return graph, 0
    return _drop_edges(graph, np.asarray(drop)), popped


def clean_graph(
    graph: DeBruijnGraph,
    max_tip_edges: int | None = None,
    max_rounds: int = 8,
) -> Tuple[DeBruijnGraph, CleaningStats]:
    """Iterate tip removal + bubble popping to a fixed point."""
    check_positive("max_rounds", max_rounds)
    stats = CleaningStats()
    for _ in range(max_rounds):
        before = graph.n_edges
        graph, tips = remove_tips(graph, max_tip_edges)
        graph, bubbles = pop_bubbles(graph)
        stats.tips_removed += tips
        stats.bubbles_popped += bubbles
        stats.rounds += 1
        removed = before - graph.n_edges
        stats.edges_removed += removed
        if removed == 0:
            break
    return graph, stats

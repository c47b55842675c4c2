"""Connected-components machinery (LocalCC + MergeCC, paper sections 3.5-3.6).

The read graph is never materialized: sorted (k-mer, read) tuple runs are
turned into star edges on the fly and folded into a union-by-index
disjoint-set forest (Algorithm 1's roots, computed by vectorised
hook-and-jump rounds), then per-task forests are merged in
``ceil(log2 P)`` tree rounds (Cybenko-style, Figure 4).
"""

from repro.cc.dsf import DisjointSetForest
from repro.cc.localcc import (
    LocalCCStats,
    edges_from_sorted_runs,
    local_connected_components,
    map_ids_to_components,
)
from repro.cc.mergecc import MergeCCStats, merge_component_arrays, tree_merge_schedule
from repro.cc.components import (
    ComponentSummary,
    compact_labels,
    component_sizes,
    summarize_components,
    reference_components_networkx,
)

__all__ = [
    "DisjointSetForest",
    "LocalCCStats",
    "edges_from_sorted_runs",
    "local_connected_components",
    "map_ids_to_components",
    "MergeCCStats",
    "merge_component_arrays",
    "tree_merge_schedule",
    "ComponentSummary",
    "compact_labels",
    "component_sizes",
    "summarize_components",
    "reference_components_networkx",
]

"""Component labeling and partition statistics (Table 7 inputs)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.cc.dsf import DisjointSetForest


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

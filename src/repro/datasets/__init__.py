"""Synthetic metagenome datasets.

The paper evaluates on four public datasets (Table 2: HG human gut, LL
Lake Lanier, MM mock microbial community, IS Iowa continuous-corn soil,
2.3-223 Gbp).  Those inputs are multi-gigabase sequencing archives we
cannot ship or download, so this package generates scaled-down synthetic
*analogues* with the structural properties the evaluation actually
exercises:

* multiple species genomes with log-normal abundance (uneven coverage),
* conserved segments shared across species — these are what produce the
  paper's giant read-graph component, and what the k-mer frequency filter
  cuts (Table 7),
* repeat segments duplicated within genomes — the high-frequency k-mers,
* paired-end reads with substitution errors and occasional N's — the
  low-frequency noise k-mers,
* dataset size ratios following Table 2.

Generation is deterministic given (dataset id, seed, scale).
"""

from repro.datasets.genomes import Genome, synthesize_genome, SegmentLibrary
from repro.datasets.community import CommunitySpec, SpeciesSpec, build_community
from repro.datasets.reads import ReadSimulator, SimulatedPair
from repro.datasets.registry import (
    DATASETS,
    DatasetSpec,
    BuiltDataset,
    build_dataset,
)

__all__ = [
    "Genome",
    "synthesize_genome",
    "SegmentLibrary",
    "CommunitySpec",
    "SpeciesSpec",
    "build_community",
    "ReadSimulator",
    "SimulatedPair",
    "DATASETS",
    "DatasetSpec",
    "BuiltDataset",
    "build_dataset",
]

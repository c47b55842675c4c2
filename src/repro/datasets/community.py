"""Community composition: species, abundances, genome synthesis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.datasets.genomes import Genome, SegmentLibrary, make_genome_set
from repro.util.rng import rng_for
from repro.util.validation import check_positive


@dataclass
class CommunitySpec:
    """Parameters of a synthetic community."""

    n_species: int
    genome_length: int
    #: sigma of the log-normal abundance distribution (0 = even community,
    #: like a mock community; ~1 = skewed, like soil).
    abundance_sigma: float = 0.8
    length_jitter: float = 0.2
    # shared-segment library
    n_conserved: int = 2
    conserved_length: int = 120
    conserved_probability: float = 1.0
    n_repeats: int = 2
    repeat_length: int = 45
    repeat_copies: int = 3
    #: probability a given genome carries a given repeat segment at all
    repeat_probability: float = 1.0

    def __post_init__(self) -> None:
        check_positive("n_species", self.n_species)
        check_positive("genome_length", self.genome_length)


@dataclass
class Community:
    """Realized community: genomes plus normalized abundances."""

    genomes: List[Genome]
    abundances: np.ndarray
    library: SegmentLibrary = field(default_factory=SegmentLibrary)

    @property
    def n_species(self) -> int:
        return len(self.genomes)

    def expected_coverage(self, total_sequenced_bases: int) -> np.ndarray:
        """Per-species expected depth of coverage for a sequencing budget.

        Species ``i`` receives ``abundances[i]`` of the reads; coverage is
        that share of bases divided by its genome length.  This is the
        quantity the paper's filter window (10 <= KF < 30) must bracket.
        """
        share = self.abundances * total_sequenced_bases
        lengths = np.array([len(g) for g in self.genomes], dtype=np.float64)
        return share / lengths


def build_community(spec: CommunitySpec, seed: int) -> Community:
    """Synthesize a deterministic community from a spec and seed."""
    lib_rng = rng_for(seed, "library")
    library = SegmentLibrary.generate(
        lib_rng,
        spec.n_conserved,
        spec.conserved_length,
        spec.n_repeats,
        spec.repeat_length,
    )
    genomes = make_genome_set(
        seed,
        spec.n_species,
        spec.genome_length,
        length_jitter=spec.length_jitter,
        library=library,
        conserved_probability=spec.conserved_probability,
        repeat_copies=spec.repeat_copies,
        repeat_probability=spec.repeat_probability,
    )
    ab_rng = rng_for(seed, "abundance")
    if spec.abundance_sigma > 0:
        raw = ab_rng.lognormal(mean=0.0, sigma=spec.abundance_sigma, size=spec.n_species)
    else:
        raw = np.ones(spec.n_species)
    abundances = raw / raw.sum()
    return Community(genomes=genomes, abundances=abundances, library=library)

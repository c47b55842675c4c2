"""Reference-based assembly evaluation (a miniature QUAST).

The synthetic datasets carry their ground-truth genomes, so assemblies can
be scored against the truth — something the paper could not do for its
real metagenomes (Table 9 reports only reference-free statistics).  The
evaluator uses exact k-mer anchoring:

* a contig is **correct** if it (or its reverse complement) occurs exactly
  in some reference genome;
* **genome fraction** is the share of reference k-mers covered by contig
  k-mers;
* a contig is a **misassembly** if its k-mers come from references but the
  contig itself matches none — i.e. the assembler glued genuine sequence
  in a wrong order (chimeras across species are the interesting case for
  partition-quality claims);
* contigs whose k-mers are absent from every reference are **spurious**
  (error-derived).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.kmers.counter import count_canonical_kmers
from repro.seqio.alphabet import reverse_complement
from repro.seqio.records import ReadBatch
from repro.util.validation import check_in_range


@dataclass
class ContigClassification:
    """Contig indices by verdict against the community's genomes."""

    correct: List[int] = field(default_factory=list)
    misassembled: List[int] = field(default_factory=list)
    spurious: List[int] = field(default_factory=list)


@dataclass
class EvaluationReport:
    """Truth-based quality metrics for one assembly."""

    n_contigs: int
    n_correct: int
    n_misassembled: int
    n_spurious: int
    #: fraction of reference k-mers covered by the assembly
    genome_fraction: float
    #: per-reference-genome k-mer coverage fractions
    per_genome_fraction: Dict[str, float]
    #: bases in correct contigs / total contig bases
    correct_base_fraction: float
    classification: ContigClassification = field(repr=False, default=None)

    @property
    def correctness_rate(self) -> float:
        return self.n_correct / self.n_contigs if self.n_contigs else 1.0


class AssemblyEvaluator:
    """Scores contig sets against reference genome strings."""

    def __init__(self, references: Sequence, k: int = 21) -> None:
        check_in_range("k", k, 4, 31)
        self.k = k
        self.names: List[str] = []
        self.texts: List[str] = []
        for ref in references:
            if hasattr(ref, "sequence"):  # Genome objects
                self.names.append(getattr(ref, "name", f"ref{len(self.names)}"))
                self.texts.append(ref.sequence)
            elif isinstance(ref, tuple):
                self.names.append(ref[0])
                self.texts.append(ref[1])
            else:
                self.names.append(f"ref{len(self.names)}")
                self.texts.append(str(ref))
        if not self.texts:
            raise ValueError("need at least one reference")
        # per-genome canonical k-mer sets
        self._ref_kmers: List[np.ndarray] = []
        for text in self.texts:
            spec = count_canonical_kmers(ReadBatch.from_sequences([text]), self.k)
            self._ref_kmers.append(spec.kmers.lo)
        self._all_ref = np.unique(np.concatenate(self._ref_kmers))

    # ------------------------------------------------------------------
    def _contig_kmers(self, contig: str) -> np.ndarray:
        if len(contig) < self.k:
            return np.empty(0, dtype=np.uint64)
        spec = count_canonical_kmers(
            ReadBatch.from_sequences([contig]), self.k
        )
        return spec.kmers.lo

    def _occurs_exactly(self, contig: str) -> bool:
        rc = reverse_complement(contig)
        return any(contig in t or rc in t for t in self.texts)

    def evaluate(self, contigs: Sequence[str]) -> EvaluationReport:
        classification = ContigClassification()
        covered = np.zeros(len(self._all_ref), dtype=bool)
        correct_bases = 0
        total_bases = 0

        for i, contig in enumerate(contigs):
            total_bases += len(contig)
            kmers = self._contig_kmers(contig)
            idx = np.searchsorted(self._all_ref, kmers)
            idx = np.clip(idx, 0, len(self._all_ref) - 1)
            hits = self._all_ref[idx] == kmers
            if len(kmers):
                covered[idx[hits]] = True
            if self._occurs_exactly(contig):
                classification.correct.append(i)
                correct_bases += len(contig)
            elif len(kmers) and hits.mean() > 0.5:
                classification.misassembled.append(i)
            else:
                classification.spurious.append(i)

        per_genome: Dict[str, float] = {}
        for name, ref_kmers in zip(self.names, self._ref_kmers):
            idx = np.searchsorted(self._all_ref, ref_kmers)
            per_genome[name] = (
                float(covered[idx].mean()) if len(ref_kmers) else 0.0
            )

        return EvaluationReport(
            n_contigs=len(contigs),
            n_correct=len(classification.correct),
            n_misassembled=len(classification.misassembled),
            n_spurious=len(classification.spurious),
            genome_fraction=float(covered.mean()) if len(covered) else 0.0,
            per_genome_fraction=per_genome,
            correct_base_fraction=(
                correct_bases / total_bases if total_bases else 1.0
            ),
            classification=classification,
        )


def evaluate_against_community(
    contigs: Sequence[str], community, k: int = 21
) -> EvaluationReport:
    """Convenience: evaluate against a dataset's ground-truth community."""
    return AssemblyEvaluator(community.genomes, k=k).evaluate(contigs)

"""The assembler driver (MEGAHIT stand-in).

Single-k unitig assembly by default; the multi-k mode mirrors MEGAHIT's
iterative strategy in simplified form ("assemblers such as MEGAHIT use
multiple k-mer lengths... Small k values help in reconstructing low
coverage genomes, and larger k values help in resolving repeats" — paper
section 2): each round assembles at the next larger k with the previous
round's contigs injected as additional high-confidence reads.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.assembly.graph import build_debruijn_graph
from repro.assembly.stats import AssemblyStats, contig_stats
from repro.assembly.unitigs import extract_unitigs
from repro.index.fastqpart import FastqUnit
from repro.seqio.fastq import read_fastq
from repro.seqio.records import ReadBatch
from repro.util.validation import check_in_range, check_positive


@dataclass
class AssemblyConfig:
    """Assembler knobs (MEGAHIT-ish defaults scaled to this substrate)."""

    #: assembly k.  Even k recommended: it keeps (k-1)-mer graph nodes
    #: palindrome-free in the two-strand representation (see
    #: :mod:`repro.assembly.graph`).  Comparable to MEGAHIT's smallest
    #: default k of 21.
    k: int = 20
    #: solid-k-mer threshold (MEGAHIT --min-count equivalent).
    min_count: int = 2
    #: contigs shorter than this are dropped.
    min_contig_length: int = 63
    #: multi-k schedule; empty = single-k.  E.g. (21, 29) runs two rounds.
    k_list: tuple = ()
    #: run tip-removal + bubble-popping between graph construction and
    #: unitig extraction (MEGAHIT-style cleaning).
    clean: bool = False
    #: tip threshold in edges; None = the 2k default.
    max_tip_edges: int | None = None

    def __post_init__(self) -> None:
        check_in_range("k", self.k, 3, 31)
        check_positive("min_count", self.min_count)
        for kk in self.k_list:
            check_in_range("k_list entry", kk, 3, 31)
        if self.k_list and list(self.k_list) != sorted(set(self.k_list)):
            raise ValueError("k_list must be strictly increasing")


@dataclass
class AssemblyResult:
    """Contigs of one assembly, their statistics, and its cost."""

    contigs: List[str]
    stats: AssemblyStats
    seconds: float
    n_reads: int
    n_solid_kmers: int
    rounds: List[AssemblyStats] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.contigs


class MiniAssembler:
    """De Bruijn unitig assembler over read batches or FASTQ files."""

    def __init__(self, config: AssemblyConfig | None = None) -> None:
        self.config = config or AssemblyConfig()

    # ------------------------------------------------------------------
    def assemble_batch(self, batch: ReadBatch) -> AssemblyResult:
        cfg = self.config
        t0 = time.perf_counter()
        ks = list(cfg.k_list) or [cfg.k]
        contigs: List[str] = []
        rounds: List[AssemblyStats] = []
        n_solid = 0
        current = batch
        for round_idx, k in enumerate(ks):
            graph = build_debruijn_graph(current, k, cfg.min_count)
            n_solid = graph.n_edges // 2 if graph.n_edges else 0
            if cfg.clean:
                from repro.assembly.cleaning import clean_graph

                graph, _ = clean_graph(graph, cfg.max_tip_edges)
            contigs = extract_unitigs(graph, min_length=cfg.min_contig_length)
            rounds.append(contig_stats(contigs))
            if round_idx + 1 < len(ks):
                # feed contigs forward as extra "reads" for the next k:
                # contig k-mers are high-confidence, so exempt them from
                # the solidity filter by replicating min_count times.
                extra = [seq for seq in contigs for _ in range(cfg.min_count)]
                extra_batch = ReadBatch.from_sequences(
                    extra,
                    read_ids=range(
                        batch.n_reads, batch.n_reads + len(extra)
                    ),
                )
                current = ReadBatch.concatenate([batch, extra_batch])
        dt = time.perf_counter() - t0
        return AssemblyResult(
            contigs=contigs,
            stats=contig_stats(contigs),
            seconds=dt,
            n_reads=batch.n_reads,
            n_solid_kmers=n_solid,
            rounds=rounds,
        )

    # ------------------------------------------------------------------
    def assemble_files(self, paths: Sequence[str]) -> AssemblyResult:
        """Assemble the union of reads from FASTQ files."""
        sequences = [r.sequence for path in paths for r in read_fastq(path)]
        if not sequences:
            return AssemblyResult([], contig_stats([]), 0.0, 0, 0)
        batch = ReadBatch.from_sequences(sequences)
        result = self.assemble_batch(batch)
        return result

    def assemble_units(self, units: Sequence) -> AssemblyResult:
        paths: List[str] = []
        for u in units:
            paths.extend(FastqUnit.wrap(u).files)
        return self.assemble_files(paths)

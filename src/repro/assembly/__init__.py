"""De Bruijn unitig assembler — the MEGAHIT stand-in for Tables 8-9.

The paper's Tables 8 and 9 measure how METAPREP partitioning changes
assembly *time* and *quality* (contigs, total bp, max contig, N50) under
MEGAHIT.  MEGAHIT itself is a large C++ system; what the experiment needs
from the assembler is that (a) runtime grows with input size, (b) output
contigs come from a frequency-filtered de Bruijn graph, and (c) the
quality statistics respond to partitioning and filtering.  This package
provides exactly that: canonical k-mer counting with a solidity filter,
the bidirectional de Bruijn graph over (k-1)-mers, maximal non-branching
path (unitig) compaction, and standard contig statistics.
"""

"""Sequence I/O substrate: DNA alphabet, FASTQ files, binary index tables."""

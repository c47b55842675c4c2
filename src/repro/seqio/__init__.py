"""Sequence I/O substrate: DNA alphabet, FASTQ files, binary index tables."""

from repro.seqio.alphabet import (
    BASES,
    CODE_A,
    CODE_C,
    CODE_G,
    CODE_T,
    CODE_INVALID,
    encode_sequence,
    decode_sequence,
    complement_codes,
    reverse_complement,
    is_valid_dna,
)
from repro.seqio.records import FastqRecord, ReadBatch
from repro.seqio.fastq import (
    read_fastq,
    write_fastq,
    FastqParseError,
    FastqScan,
    scan_fastq,
)
from repro.seqio.tables import BinaryTableError, read_table, write_table
from repro.seqio.fasta import (
    FastaParseError,
    iter_fasta,
    read_fasta,
    write_contigs,
    write_fasta,
)

__all__ = [
    "BASES",
    "CODE_A",
    "CODE_C",
    "CODE_G",
    "CODE_T",
    "CODE_INVALID",
    "encode_sequence",
    "decode_sequence",
    "complement_codes",
    "reverse_complement",
    "is_valid_dna",
    "FastqRecord",
    "ReadBatch",
    "read_fastq",
    "write_fastq",
    "FastqParseError",
    "FastqScan",
    "scan_fastq",
    "BinaryTableError",
    "read_table",
    "write_table",
    "FastaParseError",
    "iter_fasta",
    "read_fasta",
    "write_contigs",
    "write_fasta",
]

"""Failure injection: the pipeline must fail loudly and precisely, never
silently produce a wrong partition."""

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep, StaticCountMismatch
from repro.index.create import index_create
from repro.seqio.fastq import FastqParseError, read_fastq
from repro.seqio.tables import BinaryTableError, read_table


class TestCorruptIndexTables:
    def test_stale_histogram_detected(self, tiny_hg):
        """A tampered chunk histogram must trip the static-count check
        (the pipeline's defense against index/table corruption)."""
        index = index_create(tiny_hg.units, k=27, m=5, n_chunks=8)
        index.fastqpart.hist[0, :] = index.fastqpart.hist[0, ::-1].copy()
        index.merhist.counts = index.fastqpart.global_histogram().astype(
            np.uint32
        )
        cfg = PipelineConfig(
            k=27, m=5, n_tasks=2, n_threads=2, write_outputs=False
        )
        with pytest.raises(StaticCountMismatch):
            MetaPrep(cfg).run(tiny_hg.units, index=index)

    def test_bitflipped_table_file_detected(self, tiny_hg, tmp_path):
        index = index_create(
            tiny_hg.units, k=27, m=5, n_chunks=4, output_dir=tmp_path
        )
        path = tmp_path / "flip.bin"
        data = bytearray(open(index.fastqpart_path, "rb").read())
        data[5] ^= 0xFF  # corrupt the header region
        path.write_bytes(bytes(data))
        with pytest.raises((BinaryTableError, KeyError, ValueError)):
            read_table(path)

    def test_wrong_k_index_rejected_before_work(self, tiny_hg):
        index = index_create(tiny_hg.units, k=21, m=5, n_chunks=4)
        cfg = PipelineConfig(k=27, m=5, write_outputs=False)
        with pytest.raises(ValueError, match="index built for"):
            MetaPrep(cfg).run(tiny_hg.units, index=index)


class TestFastqRobustness:
    @pytest.mark.parametrize(
        "payload",
        [
            b"\x00\x01\x02\x03" * 10,
            b"@only_header\n",
            b"@r\nACGT\n+\nIIII\n@broken",
            b">this_is_fasta\nACGT\n",
            b"@r\nACGT\nIIII\n+\n",
        ],
    )
    def test_garbage_raises_parse_error_not_crash(self, tmp_path, payload):
        path = tmp_path / "garbage.fastq"
        path.write_bytes(payload)
        with pytest.raises((FastqParseError, UnicodeDecodeError, ValueError)):
            read_fastq(path)

    def test_mismatched_mate_files_rejected(self, tiny_hg, tmp_path):
        from repro.seqio.fastq import write_fastq
        from repro.seqio.records import FastqRecord

        short = tmp_path / "short_R2.fastq"
        write_fastq(short, [FastqRecord("x", "ACGT", "IIII")])
        with pytest.raises(ValueError, match="mate counts differ"):
            index_create(
                [(tiny_hg.r1_path, str(short))], k=27, m=5, n_chunks=2
            )


class TestInputMutationBetweenIndexAndRun:
    def test_shorter_input_detected(self, tiny_hg, tmp_path):
        """Index built, then the FASTQ shrinks: chunk loads must fail
        rather than silently process the wrong region."""
        import shutil

        r1 = tmp_path / "r1.fastq"
        r2 = tmp_path / "r2.fastq"
        shutil.copy(tiny_hg.r1_path, r1)
        shutil.copy(tiny_hg.r2_path, r2)
        index = index_create([(str(r1), str(r2))], k=27, m=5, n_chunks=4)
        # truncate r1 to half its records
        records = read_fastq(r1)
        from repro.seqio.fastq import write_fastq

        write_fastq(r1, records[: len(records) // 2])
        cfg = PipelineConfig(k=27, m=5, write_outputs=False)
        with pytest.raises((ValueError, FastqParseError)):
            MetaPrep(cfg).run([(str(r1), str(r2))], index=index)

"""Single-end (unpaired) input through the whole pipeline."""

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.seqio.fastq import read_fastq, write_fastq
from repro.seqio.records import ReadBatch
from tests.cc.reference_dsf import (
    partition_as_frozensets,
    reference_components_networkx,
)


@pytest.fixture(scope="module")
def single_end_file(tmp_path_factory, tiny_hg):
    """The HG analogue's R1 file alone, as a single-end dataset."""
    out = tmp_path_factory.mktemp("se") / "reads.fastq"
    write_fastq(out, read_fastq(tiny_hg.r1_path))
    return str(out)


class TestSingleEndPipeline:
    def test_runs_and_matches_oracle(self, single_end_file, tmp_path):
        cfg = PipelineConfig(
            k=27, m=5, n_tasks=2, n_threads=2, n_passes=2, write_outputs=True
        )
        res = MetaPrep(cfg).run([single_end_file], output_dir=tmp_path)
        records = read_fastq(single_end_file)
        batch = ReadBatch.from_records(records)
        ref = reference_components_networkx(batch, 27)
        got = partition_as_frozensets(res.partition.parent, batch.read_ids)
        assert got == ref

    def test_every_read_written_once(self, single_end_file, tmp_path):
        cfg = PipelineConfig(k=27, m=5, n_threads=2, write_outputs=True)
        res = MetaPrep(cfg).run([single_end_file], output_dir=tmp_path)
        n = len(read_fastq(single_end_file))
        total = (
            res.partition.lc_reads_written + res.partition.other_reads_written
        )
        assert total == n

    def test_single_end_ids_unique(self, single_end_file):
        cfg = PipelineConfig(k=27, m=5, write_outputs=False)
        res = MetaPrep(cfg).run([single_end_file])
        assert res.n_reads == len(read_fastq(single_end_file))

    def test_mixed_single_and_paired_units(self, single_end_file, tiny_hg):
        """A single-end file plus a paired unit in one run."""
        cfg = PipelineConfig(k=27, m=5, n_threads=2, write_outputs=False)
        units = [single_end_file, (tiny_hg.r1_path, tiny_hg.r2_path)]
        res = MetaPrep(cfg).run(units)
        n_single = len(read_fastq(single_end_file))
        assert res.n_reads == n_single + tiny_hg.n_pairs
        assert res.partition.summary.n_components >= 1

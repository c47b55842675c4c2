import numpy as np

from repro.index.create import index_create
from repro.index.fastqpart import FastqPartTable
from repro.index.merhist import MerHist


class TestIndexCreate:
    def test_builds_both_tables(self, tiny_hg):
        result = index_create(tiny_hg.units, k=27, m=5, n_chunks=6)
        assert result.fastqpart.n_chunks == 6
        assert result.fastqpart.total_reads == tiny_hg.n_pairs
        assert result.merhist.total_tuples > 0
        assert result.fastqpart_seconds >= 0
        assert result.merhist_seconds >= 0
        assert result.total_seconds > 0

    def test_reads_each_input_file_once(self, tiny_hg, monkeypatch):
        """Boundary discovery is timed where it runs, not by a re-read."""
        import repro.index.fastqpart as fastqpart
        import repro.seqio.fastq as fastq

        scanned = []
        real = fastq.record_boundaries

        def counting(path):
            scanned.append(str(path))
            return real(path)

        monkeypatch.setattr(fastq, "record_boundaries", counting)
        monkeypatch.setattr(fastqpart, "record_boundaries", counting)
        result = index_create(tiny_hg.units, k=27, m=5, n_chunks=4)
        files = [f for u in result.fastqpart.units for f in u.files]
        assert sorted(scanned) == sorted(files)
        assert 0 < result.fastqpart_seconds < result.total_seconds

    def test_merhist_consistent_with_fastqpart(self, tiny_hg):
        result = index_create(tiny_hg.units, k=27, m=5, n_chunks=4)
        assert np.array_equal(
            result.merhist.counts.astype(np.int64),
            result.fastqpart.global_histogram(),
        )

    def test_persists_tables(self, tiny_hg, tmp_path):
        result = index_create(
            tiny_hg.units, k=27, m=5, n_chunks=4, output_dir=tmp_path
        )
        assert result.merhist_path is not None
        back_h = MerHist.load(result.merhist_path)
        back_t = FastqPartTable.load(result.fastqpart_path)
        assert back_h.total_tuples == result.merhist.total_tuples
        assert back_t.n_chunks == 4

    def test_tables_reusable_across_configs(self, tiny_hg):
        """The point of IndexCreate: one index serves many parallel runs."""
        from repro.core.config import PipelineConfig
        from repro.core.pipeline import MetaPrep

        index = index_create(tiny_hg.units, k=27, m=5, n_chunks=8)
        r1 = MetaPrep(
            PipelineConfig(k=27, m=5, n_tasks=1, n_threads=2, write_outputs=False)
        ).run(tiny_hg.units, index=index)
        r2 = MetaPrep(
            PipelineConfig(k=27, m=5, n_tasks=2, n_threads=2, write_outputs=False)
        ).run(tiny_hg.units, index=index)
        assert np.array_equal(
            r1.partition.labels, r2.partition.labels
        )

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.kmers.filter import FrequencyFilter
from repro.runtime.work import StepNames
from tests.cc.reference_dsf import (
    partition_as_frozensets,
    reference_components_networkx,
)


def run(tiny_hg, **kwargs):
    defaults = dict(k=27, m=5, n_tasks=1, n_threads=2, write_outputs=False)
    defaults.update(kwargs)
    return MetaPrep(PipelineConfig(**defaults)).run(tiny_hg.units)


@pytest.fixture(scope="module")
def baseline(tiny_hg):
    cfg = PipelineConfig(k=27, m=5, n_tasks=1, n_threads=2, write_outputs=False)
    return MetaPrep(cfg).run(tiny_hg.units)


class TestBasicRun:
    def test_result_shape(self, tiny_hg, baseline):
        assert baseline.n_reads == tiny_hg.n_pairs
        assert baseline.total_tuples > 0
        assert baseline.partition.summary.n_components >= 1
        assert baseline.n_passes == 1

    def test_matches_networkx_oracle(self, tiny_hg, tiny_hg_batch, baseline):
        ref = reference_components_networkx(tiny_hg_batch, 27)
        got = partition_as_frozensets(
            baseline.partition.parent, tiny_hg_batch.read_ids
        )
        assert got == ref

    def test_giant_component_formed(self, baseline):
        """Paper section 4.4: read preprocessing yields a giant component."""
        assert baseline.partition.summary.largest_component_fraction > 0.5

    def test_measured_steps_present(self, baseline):
        for step in (
            StepNames.KMERGEN_IO,
            StepNames.KMERGEN,
            StepNames.LOCALSORT,
            StepNames.LOCALCC,
            StepNames.MERGECC,
        ):
            assert step in baseline.measured.seconds

    def test_projected_times_positive(self, baseline):
        assert baseline.projected.total_seconds > 0

    def test_work_volumes_consistent(self, baseline):
        w = baseline.work
        assert w.total_tuples == baseline.total_tuples
        # single pass: scanned == kept
        assert w.kmergen_positions_scanned.sum() == w.kmergen_tuples.sum()
        assert w.kmergen_io_bytes.sum() > 0

    def test_memory_estimate_positive(self, baseline):
        assert baseline.memory_per_task_bytes() > 0


class TestDecompositionInvariance:
    """The headline equivalence: any (P, T, S) gives the same partition."""

    @pytest.mark.parametrize(
        "P,T,S",
        [(1, 1, 1), (2, 2, 1), (1, 2, 3), (3, 2, 2), (4, 1, 4)],
    )
    def test_partition_invariant(self, tiny_hg, baseline, P, T, S):
        res = run(tiny_hg, n_tasks=P, n_threads=T, n_passes=S)
        assert np.array_equal(res.partition.labels, baseline.partition.labels)

    def test_localcc_opt_off_same_partition(self, tiny_hg, baseline):
        res = run(tiny_hg, n_passes=3, localcc_opt=False)
        assert np.array_equal(res.partition.labels, baseline.partition.labels)

    def test_localcc_opt_on_multipass_same_partition(self, tiny_hg, baseline):
        res = run(tiny_hg, n_passes=3, localcc_opt=True)
        assert np.array_equal(res.partition.labels, baseline.partition.labels)

    def test_multipass_tuples_conserved(self, tiny_hg, baseline):
        res = run(tiny_hg, n_passes=4)
        assert res.total_tuples == baseline.total_tuples
        # but scanned positions multiply with passes
        assert (
            res.work.kmergen_positions_scanned.sum()
            == 4 * baseline.total_tuples
        )


class TestStaticCounts:
    def test_verification_enabled_passes(self, tiny_hg):
        res = run(tiny_hg, n_tasks=2, n_threads=2)
        assert res.total_tuples > 0

    def test_comm_only_multi_task(self, tiny_hg):
        res1 = run(tiny_hg, n_tasks=1)
        assert res1.work.wire_bytes == 0
        res2 = run(tiny_hg, n_tasks=2)
        assert res2.work.wire_bytes > 0

    def test_comm_stats_per_pass(self, tiny_hg):
        res = run(tiny_hg, n_tasks=2, n_passes=3)
        assert len(res.comm_stats) == 3


class TestFilters:
    def test_filter_reduces_largest_component(self, tiny_hg, baseline):
        res = run(tiny_hg, kmer_filter=FrequencyFilter(max_freq=12))
        assert (
            res.partition.summary.largest_component_size
            <= baseline.partition.summary.largest_component_size
        )

    def test_filter_matches_oracle(self, tiny_hg, tiny_hg_batch):
        kf = FrequencyFilter(max_freq=15)
        res = run(tiny_hg, kmer_filter=kf)
        ref = reference_components_networkx(tiny_hg_batch, 27, kf)
        got = partition_as_frozensets(
            res.partition.parent, tiny_hg_batch.read_ids
        )
        assert got == ref

    def test_filter_matches_oracle_multipass_multitask(self, tiny_hg, tiny_hg_batch):
        kf = FrequencyFilter(3, 20)
        res = run(tiny_hg, kmer_filter=kf, n_tasks=2, n_threads=2, n_passes=2)
        ref = reference_components_networkx(tiny_hg_batch, 27, kf)
        got = partition_as_frozensets(
            res.partition.parent, tiny_hg_batch.read_ids
        )
        assert got == ref


class TestAutoPasses:
    def test_budget_derives_passes(self, tiny_hg):
        generous = run(tiny_hg, n_passes=None, memory_budget_per_task=10**12)
        assert generous.n_passes == 1
        # a budget with room for ~1/3 of the tuple buffers forces more passes
        budget = generous.work.memory_at(generous.total_tuples // 3).total
        tight = run(tiny_hg, n_passes=None, memory_budget_per_task=budget)
        assert tight.n_passes >= 2
        assert tight.memory_per_task_bytes() <= budget

    @pytest.mark.parametrize("budget_kib", [100, 140, 200])
    def test_planner_keeps_its_budget(self, tiny_hg, budget_kib):
        """Regression: the planner once reserved the index tables and
        p + p' but not the T FASTQ chunk buffers, and picked S = 18, 8 and
        4 here, each over the budget by the run's own section 3.7 model."""
        budget = budget_kib * 1024
        res = run(
            tiny_hg,
            n_tasks=2,
            n_passes=None,
            memory_budget_per_task=budget,
            spill="never",
        )
        assert res.memory_per_task_bytes() <= budget

    def test_index_mismatch_rejected(self, tiny_hg):
        from repro.index.create import index_create

        idx = index_create(tiny_hg.units, k=27, m=4, n_chunks=4)
        with pytest.raises(ValueError, match="index built for"):
            MetaPrep(
                PipelineConfig(k=27, m=5, write_outputs=False)
            ).run(tiny_hg.units, index=idx)


class TestK63:
    def test_two_limb_pipeline_matches_oracle(self, tiny_hg, tiny_hg_batch):
        res = run(tiny_hg, k=45, m=5, n_tasks=2, n_passes=2)
        ref = reference_components_networkx(tiny_hg_batch, 45)
        got = partition_as_frozensets(
            res.partition.parent, tiny_hg_batch.read_ids
        )
        assert got == ref

    def test_larger_k_smaller_lc(self, tiny_hg, baseline):
        """Paper Table 7: increasing k shrinks the largest component."""
        res = run(tiny_hg, k=63, m=5)
        assert (
            res.partition.summary.largest_component_size
            <= baseline.partition.summary.largest_component_size
        )


class TestDegenerateInputs:
    """Zero-chunk and empty-unit inputs must not divide by zero in the
    memory/CCIO estimates, under either execution backend."""

    def _zero_chunk_index(self, k=21, m=4):
        from repro.index.create import IndexCreateResult
        from repro.index.fastqpart import FastqPartTable
        from repro.index.merhist import MerHist

        n_bins = 1 << (2 * m)
        empty = np.zeros(0, dtype=np.int64)
        table = FastqPartTable(
            k=k,
            m=m,
            units=[],
            unit=empty,
            read_lo=empty,
            read_hi=empty,
            offset1=empty,
            size1=empty,
            offset2=empty,
            size2=empty,
            hist=np.zeros((0, n_bins), dtype=np.uint32),
            total_reads=0,
        )
        merhist = MerHist(k=k, m=m, counts=np.zeros(n_bins, dtype=np.uint32))
        return IndexCreateResult(
            merhist=merhist,
            fastqpart=table,
            fastqpart_seconds=0.0,
            merhist_seconds=0.0,
        )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_zero_chunk_table_runs(self, executor):
        index = self._zero_chunk_index()
        cfg = PipelineConfig(
            k=21, m=4, n_tasks=2, n_threads=2, write_outputs=False,
            executor=executor, max_workers=2,
        )
        res = MetaPrep(cfg).run([], index=index)
        assert res.n_reads == 0
        assert len(res.partition.labels) == 0
        assert int(res.work.ccio_bytes.sum()) == 0
        # memory estimate must stay finite with no chunks to take max() of
        assert res.memory_per_task_bytes() >= 0

    def test_empty_unit_alongside_real_unit(self, tiny_hg, tmp_path, baseline):
        from repro.index.create import index_create

        empty = tmp_path / "empty.fastq"
        empty.write_text("")
        units = list(tiny_hg.units) + [str(empty)]
        idx = index_create(units, k=27, m=5, n_chunks=8)
        cfg = PipelineConfig(k=27, m=5, n_tasks=1, n_threads=2, write_outputs=False)
        res = MetaPrep(cfg).run(units, index=idx)
        assert np.array_equal(res.partition.labels, baseline.partition.labels)

    def test_all_empty_units_rejected(self, tmp_path):
        empty = tmp_path / "empty.fastq"
        empty.write_text("")
        with pytest.raises(ValueError, match="no reads"):
            MetaPrep(
                PipelineConfig(k=21, m=4, write_outputs=False)
            ).run([str(empty)])

"""Full-pipeline integration tests on the LL analogue (different dataset
than the unit tests' HG fixture, exercising skewed abundances)."""

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.index.fastqpart import load_chunk_reads
from repro.seqio.records import ReadBatch
from tests.cc.reference_dsf import (
    partition_as_frozensets,
    reference_components_networkx,
)


@pytest.fixture(scope="module")
def ll_result(tiny_ll, tmp_path_factory):
    out = tmp_path_factory.mktemp("ll_parts")
    cfg = PipelineConfig(
        k=27, m=5, n_tasks=2, n_threads=2, n_passes=2, write_outputs=True
    )
    return MetaPrep(cfg).run(tiny_ll.units, output_dir=out)


@pytest.fixture(scope="module")
def ll_batch(ll_result):
    batches = [
        load_chunk_reads(ll_result.index.fastqpart, c)
        for c in range(ll_result.index.fastqpart.n_chunks)
    ]
    return ReadBatch.concatenate(batches)


class TestLLEndToEnd:
    def test_matches_oracle(self, ll_result, ll_batch):
        ref = reference_components_networkx(ll_batch, 27)
        got = partition_as_frozensets(
            ll_result.partition.parent, ll_batch.read_ids
        )
        assert got == ref

    def test_ll_less_connected_than_hg(self, ll_result, tiny_hg):
        """Table 7: LL's largest component fraction is the smallest of the
        three datasets (low, skewed coverage across many species)."""
        hg_cfg = PipelineConfig(k=27, m=5, write_outputs=False)
        hg = MetaPrep(hg_cfg).run(tiny_hg.units)
        assert (
            ll_result.partition.summary.largest_component_fraction
            < hg.partition.summary.largest_component_fraction
        )

    def test_species_purity_of_small_components(self, ll_result, tiny_ll):
        """Howe et al.'s observation: partitioning mostly groups reads of
        one species.  Components other than the giant one should be
        dominated by a single species."""
        labels = ll_result.partition.labels
        species = np.asarray(tiny_ll.species_of_pair)
        giant = ll_result.partition.largest_label
        impure = 0
        n_checked = 0
        for comp in np.unique(labels):
            if comp == giant:
                continue
            members = np.flatnonzero(labels == comp)
            if len(members) < 2:
                continue
            n_checked += 1
            counts = np.bincount(species[members])
            if counts.max() / len(members) < 0.9:
                impure += 1
        if n_checked:
            assert impure <= max(1, n_checked // 5)

    def test_outputs_cover_dataset(self, ll_result, tiny_ll):
        total = (
            ll_result.partition.lc_reads_written
            + ll_result.partition.other_reads_written
        )
        assert total == 2 * tiny_ll.n_pairs


class TestCrossDatasetBehaviour:
    def test_mm_analogue_giant_component(self, data_root):
        """Paper: 'for the MM dataset ... 99.5% of the reads belong to the
        giant component' — deep even coverage glues everything."""
        from repro.datasets.registry import build_dataset

        mm = build_dataset("MM", data_root / "mm", seed=7, scale=0.04)
        cfg = PipelineConfig(k=27, m=5, write_outputs=False)
        res = MetaPrep(cfg).run(mm.units)
        assert res.partition.summary.largest_component_fraction > 0.85

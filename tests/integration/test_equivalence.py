"""Decomposition-equivalence matrix: the same dataset through many (P, T,
S, machine, opt) configurations must always produce the identical
partition, matching both a 1x1x1 run and the explicit oracle."""

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.index.create import index_create
from repro.kmers.filter import FrequencyFilter
from tests.cc.reference_dsf import (
    partition_as_frozensets,
    reference_components_networkx,
)


@pytest.fixture(scope="module")
def shared_index(tiny_hg):
    return index_create(tiny_hg.units, k=27, m=5, n_chunks=12)


@pytest.fixture(scope="module")
def reference_labels(tiny_hg, shared_index):
    cfg = PipelineConfig(
        k=27, m=5, n_tasks=1, n_threads=1, n_passes=1, write_outputs=False
    )
    return MetaPrep(cfg).run(tiny_hg.units, index=shared_index).partition.labels


CONFIGS = [
    dict(n_tasks=1, n_threads=4, n_passes=1),
    dict(n_tasks=4, n_threads=1, n_passes=1),
    dict(n_tasks=2, n_threads=3, n_passes=2),
    dict(n_tasks=3, n_threads=2, n_passes=5),
    dict(n_tasks=2, n_threads=2, n_passes=2, localcc_opt=False),
    dict(n_tasks=2, n_threads=2, n_passes=1, machine="ganga"),
]


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_same_partition(self, tiny_hg, shared_index, reference_labels, overrides):
        cfg = PipelineConfig(k=27, m=5, write_outputs=False, **overrides)
        res = MetaPrep(cfg).run(tiny_hg.units, index=shared_index)
        assert np.array_equal(res.partition.labels, reference_labels)

    def test_reference_matches_oracle(
        self, tiny_hg_batch, reference_labels, shared_index
    ):
        # reconstruct partition from labels
        groups = {}
        for rid in np.unique(tiny_hg_batch.read_ids):
            groups.setdefault(int(reference_labels[rid]), set()).add(int(rid))
        got = sorted(
            (frozenset(s) for s in groups.values()),
            key=lambda c: (-len(c), min(c)),
        )
        ref = reference_components_networkx(tiny_hg_batch, 27)
        assert got == ref


class TestFilteredEquivalence:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(n_tasks=1, n_threads=1, n_passes=1),
            dict(n_tasks=2, n_threads=2, n_passes=3),
            dict(n_tasks=3, n_threads=1, n_passes=2, localcc_opt=False),
        ],
    )
    def test_filter_invariant_across_decompositions(
        self, tiny_hg, tiny_hg_batch, shared_index, overrides
    ):
        kf = FrequencyFilter(2, 25)
        cfg = PipelineConfig(
            k=27, m=5, kmer_filter=kf, write_outputs=False, **overrides
        )
        res = MetaPrep(cfg).run(tiny_hg.units, index=shared_index)
        got = partition_as_frozensets(
            res.partition.parent, tiny_hg_batch.read_ids
        )
        ref = reference_components_networkx(tiny_hg_batch, 27, kf)
        assert got == ref


class TestWorkConservation:
    @pytest.mark.parametrize("overrides", CONFIGS[:4])
    def test_tuples_and_edges_conserved(
        self, tiny_hg, shared_index, overrides
    ):
        """Total tuples is decomposition-independent; total edges may only
        shrink with LocalCC-Opt (duplicate component-id pairs collapse)."""
        cfg0 = PipelineConfig(
            k=27, m=5, n_tasks=1, n_threads=1, n_passes=1, write_outputs=False
        )
        base = MetaPrep(cfg0).run(tiny_hg.units, index=shared_index)
        cfg = PipelineConfig(k=27, m=5, write_outputs=False, **overrides)
        res = MetaPrep(cfg).run(tiny_hg.units, index=shared_index)
        assert res.total_tuples == base.total_tuples
        assert res.work.total_edges <= base.work.total_edges

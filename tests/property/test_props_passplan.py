"""Hypothesis properties of the budget-driven pass planner: the S it picks
fits the section 3.7 memory model, a budget no S fits raises the typed
error, and a budget-driven run reports exactly the model it was planned
against."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.index.create import index_create
from repro.index.fastqpart import FastqPartTable
from repro.index.merhist import MerHist
from repro.index.passplan import (
    MAX_PASSES,
    BudgetTooSmall,
    passes_for_memory_budget,
    plan_passes,
)
from repro.runtime.work import task_memory


@st.composite
def merhists(draw):
    m = draw(st.integers(1, 3))
    counts = draw(
        st.lists(st.integers(0, 5000), min_size=4**m, max_size=4**m)
    )
    return MerHist(k=9, m=m, counts=np.asarray(counts, dtype=np.uint32))


@st.composite
def chunk_tables(draw, hist):
    c = draw(st.integers(0, 6))
    zeros = np.zeros(c, dtype=np.int64)
    return FastqPartTable(
        k=hist.k,
        m=hist.m,
        units=[],
        unit=zeros,
        read_lo=zeros,
        read_hi=zeros,
        offset1=zeros,
        size1=np.asarray(
            draw(st.lists(st.integers(0, 50_000), min_size=c, max_size=c)),
            dtype=np.int64,
        ),
        offset2=zeros,
        size2=np.asarray(
            draw(st.lists(st.integers(0, 50_000), min_size=c, max_size=c)),
            dtype=np.int64,
        ),
        hist=np.zeros((c, hist.n_bins), dtype=np.uint32),
        total_reads=draw(st.integers(0, 20_000)),
    )


def model_need(hist, table, n_tasks, n_threads, tuple_bytes, n_passes):
    """The model at ``n_passes``' worst pass, through the full plan (the
    thread split does not move the pass edges, so one thread will do)."""
    plan = plan_passes(hist, n_passes, n_tasks, 1)
    return task_memory(
        table.nbytes + hist.nbytes,
        table.peak_chunk_bytes,
        n_threads,
        table.total_reads,
        tuple_bytes,
        plan.worst_tuples_per_task,
    ).total


@settings(max_examples=40, deadline=None)
@given(
    st.data(),
    merhists(),
    st.integers(1, 8),
    st.integers(1, 4),
    st.sampled_from([12, 20]),
    st.floats(0.0, 1.2),
)
def test_planner_fits_its_budget(data, hist, n_tasks, n_threads, tuple_bytes, frac):
    table = data.draw(chunk_tables(hist))
    needs = {
        s: model_need(hist, table, n_tasks, n_threads, tuple_bytes, s)
        for s in range(1, MAX_PASSES + 1)
    }
    budget = max(1, int(frac * needs[1]))
    try:
        s = passes_for_memory_budget(
            hist, table, n_tasks, n_threads, tuple_bytes, budget
        )
    except BudgetTooSmall:
        # the worst pass need not shrink with S, so "no S fits" is the
        # budget falling below every S's need, the largest S's included
        assert budget < min(needs.values())
        return
    assert needs[s] <= budget
    assert all(needs[smaller] > budget for smaller in range(1, s))


@pytest.fixture(scope="module")
def tiny_index(tiny_hg):
    return index_create(tiny_hg.units, k=27, m=5, n_chunks=8)


@settings(max_examples=8, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(60 * 1024, 400 * 1024),
)
def test_run_reports_the_accepted_model(tiny_hg, tiny_index, n_tasks, n_threads, budget):
    merhist, table = tiny_index.merhist, tiny_index.fastqpart
    cfg = PipelineConfig(
        k=27,
        m=5,
        n_tasks=n_tasks,
        n_threads=n_threads,
        n_passes=None,
        memory_budget_per_task=budget,
        n_chunks=8,
        write_outputs=False,
        spill="never",
    )
    try:
        result = MetaPrep(cfg).run(tiny_hg.units, index=tiny_index)
    except BudgetTooSmall:
        assert budget < 100 * 1024  # only the low end of the range
        return
    accepted = model_need(
        merhist, table, n_tasks, n_threads, cfg.tuple_bytes, result.n_passes
    )
    assert result.memory_per_task_bytes() == accepted
    assert accepted <= budget

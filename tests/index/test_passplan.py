import numpy as np
import pytest

from repro.index.fastqpart import FastqPartTable
from repro.index.merhist import MerHist
from repro.index.passplan import (
    BudgetTooSmall,
    balanced_boundaries,
    passes_for_memory_budget,
    plan_passes,
    spill_schedule,
)
from repro.runtime.work import task_memory


def hist_of(counts, k=9):
    counts = np.asarray(counts, dtype=np.uint32)
    m = int(np.log2(len(counts)) / 2)
    assert 4**m == len(counts)
    return MerHist(k=k, m=m, counts=counts)


def table_of(hist, n_chunks=0, chunk_bytes=0, reads=0):
    """A FASTQPart table that only carries the model's fixed terms: its
    size, its largest chunk and its read count."""
    zeros = np.zeros(n_chunks, dtype=np.int64)
    return FastqPartTable(
        k=hist.k,
        m=hist.m,
        units=[],
        unit=zeros,
        read_lo=zeros,
        read_hi=zeros,
        offset1=zeros,
        size1=np.full(n_chunks, chunk_bytes, dtype=np.int64),
        offset2=zeros,
        size2=zeros,
        hist=np.zeros((n_chunks, hist.n_bins), dtype=np.uint32),
        total_reads=reads,
    )


def fixed_bytes(hist, table, n_threads=1, tuple_bytes=12):
    """The model's terms that no pass count changes."""
    return task_memory(
        table.nbytes + hist.nbytes,
        table.peak_chunk_bytes,
        n_threads,
        table.total_reads,
        tuple_bytes,
        0,
    ).total


@pytest.fixture()
def skewed_hist(rng):
    counts = rng.integers(0, 50, size=256).astype(np.uint32)
    counts[3] = 5000  # heavy bin
    return MerHist(k=9, m=4, counts=counts)


class TestBalancedBoundaries:
    def test_spans_range(self):
        counts = np.ones(64, dtype=np.int64)
        edges = balanced_boundaries(counts, 4)
        assert edges[0] == 0 and edges[-1] == 64
        assert len(edges) == 5

    def test_uniform_counts_equal_split(self):
        counts = np.ones(64, dtype=np.int64)
        edges = balanced_boundaries(counts, 4)
        assert edges.tolist() == [0, 16, 32, 48, 64]

    def test_skewed_counts_balance_mass(self, skewed_hist):
        counts = skewed_hist.counts.astype(np.int64)
        edges = balanced_boundaries(counts, 4)
        masses = [counts[edges[i]:edges[i+1]].sum() for i in range(4)]
        # the heavy bin cannot be split, so one part dominates; the others
        # must not contain more than ~2x the fair share of the remainder
        fair = counts.sum() / 4
        light = sorted(masses)[:-1]
        assert all(mass <= 2 * fair for mass in light)

    def test_empty_range(self):
        counts = np.zeros(16, dtype=np.int64)
        edges = balanced_boundaries(counts, 4)
        assert edges[0] == 0 and edges[-1] == 16
        assert np.all(np.diff(edges) >= 0)

    def test_subrange(self):
        counts = np.ones(64, dtype=np.int64)
        edges = balanced_boundaries(counts, 2, lo=10, hi=30)
        assert edges[0] == 10 and edges[-1] == 30
        assert edges[1] == 20

    def test_monotone(self, skewed_hist):
        edges = balanced_boundaries(skewed_hist.counts.astype(np.int64), 8)
        assert np.all(np.diff(edges) >= 0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            balanced_boundaries(np.ones(8, dtype=np.int64), 2, lo=5, hi=3)


class TestPlanPasses:
    def test_passes_tile_bins(self, skewed_hist):
        plan = plan_passes(skewed_hist, n_passes=3, n_tasks=2, n_threads=2)
        assert plan.n_passes == 3
        plan.validate_disjoint(skewed_hist.n_bins)  # no exception

    def test_nesting_task_within_pass(self, skewed_hist):
        plan = plan_passes(skewed_hist, 2, 4, 2)
        for spec in plan.passes:
            assert spec.task_edges[0] == spec.bin_lo
            assert spec.task_edges[-1] == spec.bin_hi
            for p in range(4):
                te = spec.thread_edges[p]
                assert te[0] == spec.task_edges[p]
                assert te[-1] == spec.task_edges[p + 1]

    def test_total_tuples_conserved(self, skewed_hist):
        plan = plan_passes(skewed_hist, 4, 2, 2)
        assert plan.total_tuples == skewed_hist.total_tuples

    def test_single_pass_single_task(self, skewed_hist):
        plan = plan_passes(skewed_hist, 1, 1, 1)
        spec = plan.passes[0]
        assert spec.bin_lo == 0
        assert spec.bin_hi == skewed_hist.n_bins
        assert spec.tuples == skewed_hist.total_tuples

    def test_tuples_per_task(self, skewed_hist):
        plan = plan_passes(skewed_hist, 1, 4, 1)
        per_task = plan.passes[0].tuples_per_task(skewed_hist)
        assert per_task.sum() == skewed_hist.total_tuples


class TestPassesForMemoryBudget:
    def test_one_pass_when_budget_large(self):
        hist = hist_of(np.full(256, 100))
        s = passes_for_memory_budget(
            hist,
            table_of(hist),
            n_tasks=1,
            n_threads=1,
            tuple_bytes=12,
            memory_budget_per_task=10**9,
        )
        assert s == 1

    def test_more_passes_when_budget_tight(self):
        hist = hist_of(np.full(256, 1000))
        table = table_of(hist)
        total = hist.total_tuples
        # budget fits the fixed terms and half the tuples' buffers
        budget = fixed_bytes(hist, table) + 2 * 12 * total // 2
        s = passes_for_memory_budget(hist, table, 1, 1, 12, budget)
        assert s >= 2
        # and the chosen s actually fits
        worst_per_pass = plan_passes(hist, s, 1, 1).worst_tuples_per_task
        assert fixed_bytes(hist, table) + 2 * 12 * worst_per_pass <= budget

    def test_more_tasks_fewer_passes(self):
        hist = hist_of(np.full(256, 1000))
        table = table_of(hist)
        budget = fixed_bytes(hist, table) + 2 * 12 * hist.total_tuples // 3
        s1 = passes_for_memory_budget(hist, table, 1, 1, 12, budget)
        s4 = passes_for_memory_budget(hist, table, 4, 1, 12, budget)
        assert s4 <= s1

    def test_reserved_bytes_reduce_budget(self):
        """The fixed terms (tables, T chunk buffers, p + p') are reserved
        before any tuple buffer: larger ones force at least as many
        passes."""
        hist = hist_of(np.full(256, 1000))
        clean = table_of(hist)
        budget = fixed_bytes(hist, clean) + 2 * 12 * hist.total_tuples
        s_clean = passes_for_memory_budget(hist, clean, 1, 4, 12, budget)
        heavy = table_of(hist, n_chunks=4, chunk_bytes=budget // 16, reads=1000)
        s_reserved = passes_for_memory_budget(hist, heavy, 1, 4, 12, budget)
        assert s_clean == 1
        assert s_reserved > s_clean

    def test_impossible_budget_rejected(self):
        """A budget the fixed terms alone exceed raises the typed error,
        which names the fixed bytes and the least any S needs."""
        hist = hist_of(np.full(256, 1000))
        table = table_of(hist, n_chunks=2, chunk_bytes=500, reads=100)
        fixed = fixed_bytes(hist, table, n_threads=2)
        least = fixed + 2 * 12 * plan_passes(hist, 64, 1, 2).worst_tuples_per_task
        with pytest.raises(BudgetTooSmall) as err:
            passes_for_memory_budget(hist, table, 1, 2, 12, fixed - 1)
        assert f"alone take {fixed} bytes" in str(err.value)
        assert f"needs is {least} bytes" in str(err.value)
        assert isinstance(err.value, ValueError)

    def test_heavy_single_bin_bounds_passes(self):
        # one bin holds everything: more passes cannot help
        counts = np.zeros(256, dtype=np.uint32)
        counts[7] = 10_000
        hist = hist_of(counts)
        table = table_of(hist)
        need = fixed_bytes(hist, table) + 2 * 12 * 10_000
        s = passes_for_memory_budget(hist, table, 1, 1, 12, need)
        assert s == 1
        with pytest.raises(BudgetTooSmall):
            passes_for_memory_budget(hist, table, 1, 1, 12, need - 1)

    @pytest.mark.parametrize("budget", [0, -1, -(1 << 30)])
    def test_zero_or_negative_budget_rejected(self, budget):
        """Regression: a nonsensical budget must raise a clear error up
        front, not surface downstream as a division artifact."""
        hist = hist_of(np.full(256, 1000))
        with pytest.raises(ValueError, match="memory_budget_per_task"):
            passes_for_memory_budget(hist, table_of(hist), 1, 1, 12, budget)

    def test_nonpositive_tuple_bytes_rejected(self):
        hist = hist_of(np.full(256, 1000))
        with pytest.raises(ValueError, match="tuple_bytes"):
            passes_for_memory_budget(hist, table_of(hist), 1, 1, 0, 1 << 20)

    def test_worst_tuples_per_task(self):
        """The largest owner block over all passes, not the worst pass's
        even share: tasks split a pass at whole bins."""
        hist = hist_of(np.full(256, 1000))
        plan = plan_passes(hist, 3, 4, 1)
        blocks = [spec.tuples_per_task(hist).max() for spec in plan.passes]
        assert plan.worst_tuples_per_task == max(blocks) == 22_000
        # the worst pass holds 86 bins; its even share would be 21,500
        worst_pass = max(spec.tuples for spec in plan.passes)
        assert -(-worst_pass // 4) == 21_500

    def test_worst_tuples_per_task_heavy_bin(self):
        """One heavy bin cannot be split: the task owning it holds far
        more than half of its pass, and the model must charge that."""
        counts = np.full(256, 10, dtype=np.uint32)
        counts[40] = 10_000
        hist = hist_of(counts)
        plan = plan_passes(hist, 1, 2, 1)
        (spec,) = plan.passes
        assert plan.worst_tuples_per_task == spec.tuples_per_task(hist).max()
        assert plan.worst_tuples_per_task >= 10_000 > -(-spec.tuples // 2)


class TestSpillSchedule:
    def _plan(self, counts, n_passes=2):
        return plan_passes(hist_of(counts), n_passes, 2, 2)

    def test_never_is_all_false(self):
        plan = self._plan(np.full(256, 100))
        assert spill_schedule(plan, 12, 1, "never") == [False, False]

    def test_always_is_all_true(self):
        plan = self._plan(np.full(256, 100))
        assert spill_schedule(plan, 12, None, "always") == [True, True]

    def test_auto_without_budget_never_spills(self):
        plan = self._plan(np.full(256, 100))
        assert spill_schedule(plan, 12, None, "auto") == [False, False]

    def test_auto_spills_only_overbudget_passes(self):
        # pass 0 carries the heavy bin; pass 1 is light
        counts = np.ones(256, dtype=np.uint32)
        counts[0] = 10_000
        plan = self._plan(counts)
        heavy, light = (p.tuples for p in plan.passes)
        assert heavy > light
        budget = 12 * (light + 1)
        assert spill_schedule(plan, 12, budget, "auto") == [True, False]

    def test_auto_compares_whole_pass_residency(self):
        """The decision quantity is the pass's full in-memory footprint
        (every owner block at once), not one task's share."""
        plan = self._plan(np.full(256, 100))
        volume = 12 * plan.passes[0].tuples
        assert spill_schedule(plan, 12, volume, "auto") == [False, False]
        assert spill_schedule(plan, 12, volume - 1, "auto") == [True, True]

    def test_unknown_mode_rejected(self):
        plan = self._plan(np.full(256, 100))
        with pytest.raises(ValueError, match="spill"):
            spill_schedule(plan, 12, None, "sometimes")

    def test_nonpositive_budget_rejected(self):
        plan = self._plan(np.full(256, 100))
        with pytest.raises(ValueError, match="memory_budget_per_task"):
            spill_schedule(plan, 12, 0, "auto")

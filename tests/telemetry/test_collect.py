"""Collector folding and barrier aggregation semantics."""

import numpy as np
import pytest

from repro import telemetry
from repro.runtime.timing import ProjectedTimes
from repro.runtime.work import StepNames
from repro.telemetry.collect import (
    RUN_FILENAME,
    RunTelemetry,
    SpanEvent,
    TelemetryCollector,
)


@pytest.fixture(autouse=True)
def clean_state():
    telemetry.deactivate()
    yield
    telemetry.deactivate()


def emit_into(collector, fn):
    telemetry.activate(collector)
    try:
        fn()
    finally:
        telemetry.deactivate()


def job_events(fn):
    """What a pool job or worker reply carries home: ``fn``'s events."""
    with telemetry.capture() as events:
        fn()
    return events


class TestMerge:
    def test_counters_sum_gauges_max(self):
        collector = TelemetryCollector()

        def emit():
            telemetry.add_counter("cc.unions", 5, task=0)
            telemetry.add_counter("cc.unions", 7, task=0)
            telemetry.add_counter("cc.unions", 1, task=1)
            telemetry.set_gauge("buffers.pool_hwm_bytes", 100, task=0)
            telemetry.set_gauge("buffers.pool_hwm_bytes", 60, task=0)

        emit_into(collector, emit)
        run = collector.finalize(n_tasks=2)
        assert run.counters["cc.unions"] == {0: 12, 1: 1}
        assert run.counter_total("cc.unions") == 13
        assert run.gauge_max("buffers.pool_hwm_bytes") == 100

    def test_incremental_merge_reads_only_new_tail(self):
        """Folding is incremental: each ``map``'s fold adds only its own
        jobs' events, never again what an earlier fold added."""
        collector = TelemetryCollector()
        first = job_events(lambda: telemetry.add_counter("cc.unions", 1))
        second = job_events(lambda: telemetry.add_counter("cc.unions", 2))
        telemetry.activate(collector)
        telemetry.fold(first)
        telemetry.fold(second)
        telemetry.deactivate()
        run = collector.finalize(n_tasks=1)
        assert run.counter_total("cc.unions") == 3

    def test_spans_sorted_by_start(self):
        collector = TelemetryCollector()

        def emit():
            telemetry.record_span(StepNames.LOCALSORT, 200, 300, task=0)
            telemetry.record_span(StepNames.KMERGEN, 50, 120, task=0)

        emit_into(collector, emit)
        run = collector.finalize(n_tasks=1)
        assert [s.name for s in run.spans] == [
            StepNames.KMERGEN,
            StepNames.LOCALSORT,
        ]

    def test_finalize_merges_pending_records(self):
        collector = TelemetryCollector()
        events = job_events(lambda: telemetry.add_counter("cc.unions", 4))
        emit_into(collector, lambda: telemetry.fold(events))
        run = collector.finalize(n_tasks=1)
        assert run.counter_total("cc.unions") == 4

    def test_folded_worker_spans_carry_their_host(self, tmp_path):
        collector = TelemetryCollector()
        events = job_events(
            lambda: telemetry.record_span(
                StepNames.KMERGEN, 5, 9, task=np.int64(1), aux=np.int64(2)
            )
        )

        def emit():
            telemetry.record_span(StepNames.MERGECC, 10, 12, task=0)
            telemetry.fold(events, host="10.0.0.2:7000")

        emit_into(collector, emit)
        run = collector.finalize(n_tasks=2)
        assert run.spans == [
            SpanEvent(StepNames.KMERGEN, 1, 2, 5, 9, host="10.0.0.2:7000"),
            SpanEvent(StepNames.MERGECC, 0, -1, 10, 12),
        ]
        assert run.hosts_seen() == ["10.0.0.2:7000"]
        loaded = RunTelemetry.load(run.save(tmp_path / RUN_FILENAME))
        assert loaded.spans == run.spans


class TestBarrierSemantics:
    def run_with_spans(self):
        # task 0 works 2s across two spans; task 1 works 3s in one
        return RunTelemetry(
            t0_ns=0,
            n_tasks=2,
            spans=[
                SpanEvent(StepNames.LOCALSORT, 0, 0, 0, 1_000_000_000),
                SpanEvent(StepNames.LOCALSORT, 0, 1, 1_000_000_000, 2_000_000_000),
                SpanEvent(StepNames.LOCALSORT, 1, 0, 0, 3_000_000_000),
            ],
        )

    def test_step_seconds_is_max_over_per_task_sums(self):
        run = self.run_with_spans()
        per_task = run.per_task_step_seconds(StepNames.LOCALSORT)
        assert per_task == {0: pytest.approx(2.0), 1: pytest.approx(3.0)}
        assert run.step_seconds(StepNames.LOCALSORT) == pytest.approx(3.0)

    def test_breakdown_carries_critical_path(self):
        run = self.run_with_spans()
        bd = run.breakdown()
        assert bd.seconds[StepNames.LOCALSORT] == pytest.approx(3.0)

    def test_absent_step_is_zero(self):
        assert self.run_with_spans().step_seconds(StepNames.MERGECC) == 0.0


class TestSerialization:
    def test_save_load_roundtrip_with_projection(self, tmp_path):
        projected = ProjectedTimes(
            machine="edison",
            n_tasks=2,
            per_task={StepNames.LOCALSORT: np.array([1.5, 2.5])},
        )
        run = RunTelemetry(
            t0_ns=10,
            n_tasks=2,
            spans=[SpanEvent(StepNames.LOCALSORT, 1, -1, 10, 20)],
            counters={"cc.unions": {0: 3}},
            gauges={"buffers.pool_hwm_bytes": {-1: 99}},
            projected=projected,
        )
        path = run.save(tmp_path / RUN_FILENAME)
        loaded = RunTelemetry.load(path)
        assert loaded.spans == run.spans
        assert loaded.counters == run.counters
        assert loaded.gauges == run.gauges
        assert loaded.projected.machine == "edison"
        np.testing.assert_allclose(
            loaded.projected.per_task[StepNames.LOCALSORT], [1.5, 2.5]
        )

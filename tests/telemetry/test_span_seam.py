"""The one timing seam: ``telemetry.span(step, times=...)`` reads the
clock once and feeds both the ``TimeBreakdown`` and, when telemetry is
on, the span event in the thread's buffer."""

import pytest

from repro import telemetry
from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.runtime.work import StepNames
from repro.telemetry.runtime import KIND_SPAN
from repro.util.timers import TimeBreakdown


@pytest.fixture(autouse=True)
def clean_state():
    telemetry.deactivate()
    yield
    telemetry.deactivate()


def captured_spans(events):
    return [ev for ev in events if ev[0] == KIND_SPAN]


class TestSpanTimes:
    def test_accumulates_with_telemetry_off_and_writes_nothing(self, tmp_path):
        times = TimeBreakdown()
        for _ in range(2):
            with telemetry.span("LocalSort", times=times) as timed:
                pass
        assert timed.t1_ns >= timed.t0_ns
        assert list(times.seconds) == ["LocalSort"]
        assert times.get("LocalSort") >= (timed.t1_ns - timed.t0_ns) / 1e9
        assert not telemetry.enabled()
        assert list(tmp_path.iterdir()) == []

    def test_no_times_and_telemetry_off_reads_no_clock(self):
        with telemetry.span("LocalSort") as timed:
            pass
        assert timed.t0_ns is None and timed.t1_ns is None

    def test_one_span_with_the_same_nanoseconds_when_on(self):
        times = TimeBreakdown()
        with telemetry.capture() as events:
            with telemetry.span("LocalSort", task=1, aux=3, times=times) as timed:
                pass
        ((_, name, task, aux, t0_ns, t1_ns),) = captured_spans(events)
        assert (name, task, aux) == ("LocalSort", 1, 3)
        assert (t0_ns, t1_ns) == (timed.t0_ns, timed.t1_ns)
        assert times.get("LocalSort") == (t1_ns - t0_ns) / 1e9

    def test_records_when_the_body_raises(self):
        times = TimeBreakdown()
        with telemetry.capture() as events:
            with pytest.raises(RuntimeError, match="boom"):
                with telemetry.span("LocalCC-Opt", times=times):
                    raise RuntimeError("boom")
        ((*_, t0_ns, t1_ns),) = captured_spans(events)
        assert times.get("LocalCC-Opt") == (t1_ns - t0_ns) / 1e9


def test_serial_run_measured_equals_span_seconds(tiny_hg):
    """Timed once: the seconds in ``result.measured`` and the spans in
    the trace come from the same clock reads, so they agree exactly."""
    cfg = PipelineConfig(
        k=27, m=5, n_tasks=2, n_threads=2, n_passes=2,
        write_outputs=False, telemetry=True,
    )
    result = MetaPrep(cfg).run(tiny_hg.units)
    for step in (
        StepNames.KMERGEN_IO,
        StepNames.KMERGEN,
        StepNames.LOCALSORT,
        StepNames.LOCALCC,
    ):
        total = 0.0
        for s in result.telemetry.spans:  # chronological == accumulation order
            if s.name == step:
                total += s.seconds
        assert total > 0
        assert total == result.measured.get(step), step

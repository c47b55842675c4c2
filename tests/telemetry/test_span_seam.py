"""The one timing seam: ``telemetry.span(step, times=...)`` reads the
clock once and feeds both the ``TimeBreakdown`` and, when telemetry is
on, the spool span."""

import pytest

from repro import telemetry
from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.runtime.work import StepNames
from repro.telemetry.events import KIND_SPAN, read_spool
from repro.telemetry.runtime import TelemetrySettings
from repro.util.timers import TimeBreakdown


@pytest.fixture(autouse=True)
def clean_state():
    telemetry.deactivate()
    yield
    telemetry.deactivate()


def spool_spans(spool_dir):
    out = []
    for path in sorted(spool_dir.glob("*.evt")):
        records, _ = read_spool(path)
        out.extend(r for r in records if r.kind == KIND_SPAN)
    return out


class TestSpanTimes:
    def test_accumulates_with_telemetry_off_and_writes_nothing(self, tmp_path):
        times = TimeBreakdown()
        for _ in range(2):
            with telemetry.span("LocalSort", times=times) as timed:
                pass
        assert timed.t1_ns >= timed.t0_ns
        assert list(times.seconds) == ["LocalSort"]
        assert times.get("LocalSort") >= (timed.t1_ns - timed.t0_ns) / 1e9
        assert list(tmp_path.iterdir()) == []

    def test_no_times_and_telemetry_off_reads_no_clock(self):
        with telemetry.span("LocalSort") as timed:
            pass
        assert timed.t0_ns is None and timed.t1_ns is None

    def test_one_span_with_the_same_nanoseconds_when_on(self, tmp_path):
        telemetry.activate(TelemetrySettings(str(tmp_path)))
        times = TimeBreakdown()
        with telemetry.span("LocalSort", task=1, aux=3, times=times) as timed:
            pass
        (record,) = spool_spans(tmp_path)
        assert (record.name, record.task, record.aux) == ("LocalSort", 1, 3)
        assert (record.value_a, record.value_b) == (timed.t0_ns, timed.t1_ns)
        assert times.get("LocalSort") == (record.value_b - record.value_a) / 1e9

    def test_records_when_the_body_raises(self, tmp_path):
        telemetry.activate(TelemetrySettings(str(tmp_path)))
        times = TimeBreakdown()
        with pytest.raises(RuntimeError, match="boom"):
            with telemetry.span("LocalCC-Opt", times=times):
                raise RuntimeError("boom")
        (record,) = spool_spans(tmp_path)
        assert times.get("LocalCC-Opt") == (record.value_b - record.value_a) / 1e9


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

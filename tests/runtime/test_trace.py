import pytest

from repro.runtime.machines import EDISON
from repro.runtime.timing import TimingModel
from repro.runtime.work import RunWork, StepNames
from repro.telemetry.collect import RunTelemetry
from repro.telemetry.exporters import (
    projection_to_trace_events,
    write_measured_trace,
)


@pytest.fixture()
def projection():
    work = RunWork(n_tasks=3, n_threads=2, n_passes=1, n_reads=1000, k=27, tuple_bytes=12)
    work.kmergen_tuples += 10_000_000
    work.kmergen_positions_scanned += 10_000_000
    work.kmergen_io_bytes += 10_000_000
    work.fastq_parse_bytes += 10_000_000
    work.sort_tuple_passes += 80_000_000
    work.cc_edges_first_pass += 3_000_000
    work.ccio_bytes += 10_000_000
    return TimingModel(EDISON).project(work)


class TestTraceEvents:
    def test_one_event_per_task_step(self, projection):
        events = projection_to_trace_events(projection)
        names = {e["name"] for e in events}
        assert StepNames.KMERGEN in names
        assert StepNames.LOCALSORT in names
        # three tasks for each emitted step
        kmergen = [e for e in events if e["name"] == StepNames.KMERGEN]
        assert len(kmergen) == 3
        assert {e["tid"] for e in kmergen} == {0, 1, 2}

    def test_barrier_alignment(self, projection):
        """Each step starts at the max end time of the previous step."""
        events = projection_to_trace_events(projection)
        by_step = {}
        for e in events:
            by_step.setdefault(e["name"], []).append(e)
        prev_end = 0.0
        for step in StepNames.ORDER:
            if step not in by_step:
                continue
            starts = {e["ts"] for e in by_step[step]}
            assert len(starts) == 1  # all tasks start together
            (start,) = starts
            assert start == pytest.approx(prev_end, abs=1e-6)
            prev_end = start + max(e["dur"] for e in by_step[step])

    def test_durations_match_projection(self, projection):
        events = projection_to_trace_events(projection)
        for e in events:
            step, task = e["name"], e["tid"]
            assert e["dur"] == pytest.approx(
                float(projection.per_task[step][task]) * 1e6
            )

    def test_zero_steps_skipped(self, projection):
        events = projection_to_trace_events(projection)
        # single-task comm steps are zero for P... here P=3 but no comm
        # volumes were set: KmerGen-Comm has zero duration -> no events
        assert all(e["dur"] > 0 for e in events)


class TestWriteChromeTrace:
    def test_creates_parent_dirs(self, projection, tmp_path):
        """The projection's Chrome trace is the pid-1 row of the run's
        measured trace; the writer makes its own directories."""
        path = tmp_path / "deep" / "trace.json"
        run = RunTelemetry(t0_ns=0, n_tasks=3, projected=projection)
        n = write_measured_trace(run, path)
        assert path.exists()
        assert n == len(projection_to_trace_events(projection))

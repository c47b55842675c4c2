"""End-to-end telemetry over real pipeline runs, both engines.

The acceptance contract of the subsystem: a real multiprocess run
(process engine, shm plane) yields a Perfetto trace with one row
per task carrying spans for every paper stage, hot-path counters that
agree with the run's own work accounting, and — crash or no crash — no
residue: events ride home with the jobs' results, so nothing but the
four exported artifacts ever touches the filesystem, and a failed run
exports nothing.
"""

import json
import os
import tempfile

import pytest

from repro import telemetry
from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.runtime.work import StepNames
from repro.telemetry.compare import compare_measured_projected

PER_TASK_STAGES = (
    StepNames.KMERGEN,
    StepNames.KMERGEN_COMM,
    StepNames.LOCALSORT,
    StepNames.LOCALCC,
    StepNames.MERGECC,
)


@pytest.fixture(autouse=True)
def clean_state():
    telemetry.deactivate()
    yield
    telemetry.deactivate()


def run(tiny_hg, tmp_path=None, **kwargs):
    defaults = dict(
        k=27, m=5, n_tasks=2, n_threads=2, n_passes=2, write_outputs=False
    )
    defaults.update(kwargs)
    cfg = PipelineConfig(**defaults)
    return MetaPrep(cfg).run(tiny_hg.units, output_dir=tmp_path)


@pytest.fixture(scope="module", params=["serial", "process"])
def telemetered(request, tiny_hg, tmp_path_factory):
    """One telemetered run per engine (module-cached: runs are not free)."""
    engine = request.param
    directory = tmp_path_factory.mktemp(f"tele-{engine}")
    result = run(
        tiny_hg,
        tmp_path=directory / "parts",
        executor=engine,
        max_workers=2,
        telemetry_dir=str(directory / "tele"),
        write_outputs=True,
    )
    return result, directory / "tele"


class TestAcceptance:
    def test_every_task_row_has_every_paper_stage(self, telemetered):
        result, _ = telemetered
        rt = result.telemetry
        for task in range(result.config.n_tasks):
            steps_on_row = {s.name for s in rt.spans if s.task == task}
            for stage in PER_TASK_STAGES:
                assert stage in steps_on_row, (task, stage)

    def test_trace_artifact_has_row_per_task(self, telemetered):
        result, tele_dir = telemetered
        doc = json.loads((tele_dir / "trace.json").read_text())
        events = [
            e for e in doc["traceEvents"] if e.get("ph") == "X" and e["pid"] == 0
        ]
        rows = {e["tid"] for e in events}
        # every task row plus the driver row below them
        assert rows == set(range(result.config.n_tasks + 1))

    def test_gap_report_covers_measured_steps(self, telemetered):
        result, _ = telemetered
        report = compare_measured_projected(result.telemetry)
        steps = {row.step for row in report.rows}
        for stage in PER_TASK_STAGES:
            assert stage in steps

    def test_counters_match_run_accounting(self, telemetered):
        result, _ = telemetered
        rt = result.telemetry
        assert (
            rt.counter_total("kmergen.tuples_routed") == result.total_tuples
        )
        assert rt.counter_total("cc.unions") == result.cc_stats.n_unions
        assert (
            rt.counter_total("cc.find_steps") == result.cc_stats.n_find_steps
        )
        assert (
            rt.counter_total("sort.radix_passes")
            == result.sort_stats.passes_executed
        )
        assert rt.counter_total("comm.bytes_moved") == sum(
            int(s.bytes_matrix.sum()) for s in result.comm_stats
        )

    def test_pool_gauges_observed(self, telemetered):
        result, _ = telemetered
        rt = result.telemetry
        assert rt.gauge_max("buffers.pool_hwm_bytes") > 0
        assert (
            rt.counter_total("buffers.bytes_allocated")
            >= rt.gauge_max("buffers.pool_hwm_bytes")
        )

    def test_spool_swept_after_clean_run(self, telemetered):
        """The directory holds the four artifacts and nothing else."""
        _, tele_dir = telemetered
        assert sorted(p.name for p in tele_dir.iterdir()) == [
            "metaprep.prom",
            "metrics.json",
            "telemetry.json",
            "trace.json",
        ]

    def test_engines_agree_on_counter_totals(self, tiny_hg):
        totals = []
        for engine in ("serial", "process"):
            result = run(
                tiny_hg,
                executor=engine,
                max_workers=2,
                telemetry=True,
            )
            totals.append(result.telemetry.counter_totals())
        assert totals[0] == totals[1]  # bit-identity extends to accounting


class TestLifecycle:
    def test_disabled_run_has_no_telemetry(self, tiny_hg):
        result = run(tiny_hg, n_tasks=1, n_passes=1)
        assert result.telemetry is None
        assert not telemetry.enabled()  # nothing leaked onto this thread

    def test_memory_only_mode_leaves_no_files(self, tiny_hg):
        before = set(os.listdir(tempfile.gettempdir()))
        result = run(tiny_hg, n_tasks=1, n_passes=1, telemetry=True)
        assert result.telemetry is not None
        assert result.telemetry.spans
        assert set(os.listdir(tempfile.gettempdir())) == before

    def test_driver_deactivated_after_run(self, tiny_hg):
        run(tiny_hg, n_tasks=1, n_passes=1, telemetry=True)
        assert not telemetry.enabled()


class TestCrashInjection:
    def test_aborted_run_sweeps_spool(self, tiny_hg, tmp_path):
        tele_dir = tmp_path / "tele"

        def bomb(event):
            if event["type"] == "pass_complete":
                raise RuntimeError("injected crash")

        cfg = PipelineConfig(
            k=27, m=5, n_tasks=2, n_threads=2, n_passes=2,
            write_outputs=False, telemetry_dir=str(tele_dir),
        )
        with pytest.raises(RuntimeError, match="injected crash"):
            MetaPrep(cfg).run(tiny_hg.units, events=bomb)
        assert not tele_dir.exists()  # a failed run exports nothing
        assert not telemetry.enabled()

    def test_aborted_memory_only_run_sweeps_temp_root(self, tiny_hg):
        before = set(os.listdir(tempfile.gettempdir()))

        def bomb(event):
            if event["type"] == "pass_start":
                raise RuntimeError("injected crash")

        cfg = PipelineConfig(
            k=27, m=5, n_tasks=1, n_threads=2, write_outputs=False,
            telemetry=True,
        )
        with pytest.raises(RuntimeError, match="injected crash"):
            MetaPrep(cfg).run(tiny_hg.units, events=bomb)
        assert set(os.listdir(tempfile.gettempdir())) == before

    def test_crashed_process_worker_leaves_no_spool(self, tiny_hg, tmp_path):
        # verify_static_counts failure path raises inside the pass
        tele_dir = tmp_path / "tele"
        cfg = PipelineConfig(
            k=27, m=5, n_tasks=2, n_threads=2, n_passes=2,
            write_outputs=False, executor="process",
            max_workers=2, telemetry_dir=str(tele_dir),
        )

        def bomb(event):
            if event["type"] == "pass_complete":
                raise RuntimeError("injected crash")

        with pytest.raises(RuntimeError, match="injected crash"):
            MetaPrep(cfg).run(tiny_hg.units, events=bomb)
        assert not tele_dir.exists()

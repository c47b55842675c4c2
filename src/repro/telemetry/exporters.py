"""Exporters: Perfetto/Chrome trace, Prometheus textfile, JSON metrics.

The measured trace and the projection share one row layout (one ``tid``
row per task, the same step color map) so a real run and its projection
are visually comparable; when the run carries a
:class:`~repro.runtime.timing.ProjectedTimes` the projection is emitted
as a second process (pid 1) in the same file, giving a side-by-side
measured/projected view in one Perfetto load.

The Prometheus exporter targets the node-exporter *textfile collector*
format: plain ``# TYPE`` + sample lines, written atomically so a
scraper never reads a torn file.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Dict, List, Mapping

from repro.runtime.timing import ProjectedTimes
from repro.runtime.work import StepNames
from repro.telemetry.collect import RunTelemetry

RUN_FILENAME = "telemetry.json"
TRACE_FILENAME = "trace.json"
METRICS_FILENAME = "metrics.json"
PROM_FILENAME = "metaprep.prom"


# ----------------------------------------------------------------------
# Perfetto / Chrome trace
# ----------------------------------------------------------------------
#: stable color names understood by the Chrome trace viewer
_COLORS = {
    StepNames.KMERGEN_IO: "thread_state_iowait",
    StepNames.KMERGEN: "thread_state_running",
    StepNames.KMERGEN_COMM: "rail_response",
    StepNames.LOCALSORT: "cq_build_running",
    StepNames.LOCALCC: "good",
    StepNames.MERGE_COMM: "rail_animation",
    StepNames.MERGECC: "terrible",
    StepNames.CC_IO: "grey",
}


def projection_to_trace_events(projected: ProjectedTimes) -> List[dict]:
    """Duration events ('ph': 'X') per (task, step), barrier-aligned.

    Each step starts when the slowest task finished the previous step —
    the same critical-path semantics ``ProjectedTimes.total_seconds``
    uses — so the viewer shows both per-task busy time and barrier slack.
    """
    events: List[dict] = []
    clock = 0.0
    for step in StepNames.ORDER:
        if step not in projected.per_task:
            continue
        per_task = projected.per_task[step]
        for task, seconds in enumerate(per_task):
            if seconds <= 0:
                continue
            events.append(
                {
                    "name": step,
                    "ph": "X",
                    "pid": 0,
                    "tid": task,
                    "ts": clock * 1e6,  # microseconds
                    "dur": float(seconds) * 1e6,
                    "cname": _COLORS.get(step, "grey"),
                    "args": {"seconds": float(seconds)},
                }
            )
        clock += float(per_task.max()) if len(per_task) else 0.0
    return events


def measured_trace_events(run: RunTelemetry) -> List[dict]:
    """Duration events ('ph': 'X') for every merged span.

    Rows are tasks, exactly as in :func:`projection_to_trace_events`;
    driver-side spans (task -1) land on an extra row below the tasks.
    Timestamps are real monotonic offsets from the run origin, so unlike
    the barrier-aligned projection the viewer shows true overlap.
    """
    events: List[dict] = []
    for s in run.spans:
        args = {"task": s.task, "aux": s.aux, "seconds": s.seconds}
        if s.host:
            # per-host span attribution for distributed-engine runs
            args["host"] = s.host
        events.append(
            {
                "name": s.name,
                "ph": "X",
                "pid": 0,
                "tid": s.task if s.task >= 0 else run.n_tasks,
                "ts": (s.t0_ns - run.t0_ns) / 1e3,  # microseconds
                "dur": (s.t1_ns - s.t0_ns) / 1e3,
                "cname": _COLORS.get(s.name, "grey"),
                "args": args,
            }
        )
    return events


def _thread_meta(pid: int, tid: int, name: str) -> dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": pid,
        "tid": tid,
        "args": {"name": name},
    }


def write_measured_trace(
    run: RunTelemetry,
    path: str | os.PathLike,
    include_projection: bool = True,
) -> int:
    """Write the measured run's trace JSON; returns the event count.

    With ``include_projection`` (and a projection attached to ``run``)
    the §3.7 projection rides along as pid 1.
    """
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": "METAPREP measured run"},
        }
    ]
    meta.extend(_thread_meta(0, t, f"task {t}") for t in range(run.n_tasks))
    meta.append(_thread_meta(0, run.n_tasks, "driver"))
    events = measured_trace_events(run)

    if include_projection and run.projected is not None:
        projected = run.projected
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": 1,
                "args": {
                    "name": f"METAPREP projection ({projected.machine})"
                },
            }
        )
        meta.extend(
            _thread_meta(1, t, f"task {t}") for t in range(projected.n_tasks)
        )
        events.extend(
            dict(e, pid=1) for e in projection_to_trace_events(projected)
        )

    payload = {"traceEvents": meta + events, "displayTimeUnit": "ms"}
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return len(events)


# ----------------------------------------------------------------------
# Prometheus textfile + JSON metrics snapshot
# ----------------------------------------------------------------------
def _metric_name(name: str) -> str:
    return "metaprep_" + re.sub(r"[^a-zA-Z0-9_]", "_", name).lower()


def prometheus_textfile(
    counters: Mapping[str, float], gauges: Mapping[str, float]
) -> str:
    """Render metrics in the textfile-collector exposition format."""
    lines: List[str] = []
    for kind, metrics in (("counter", counters), ("gauge", gauges)):
        for name in sorted(metrics):
            metric = _metric_name(name)
            lines.append(f"# TYPE {metric} {kind}")
            value = metrics[name]
            lines.append(f"{metric} {value:g}" if isinstance(value, float)
                         else f"{metric} {value}")
    return "\n".join(lines) + "\n"


def write_prometheus_textfile(
    path: str | os.PathLike,
    counters: Mapping[str, float],
    gauges: Mapping[str, float],
) -> Path:
    """Atomic write (tmp + rename): scrapers never see a torn file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(prometheus_textfile(counters, gauges))
    os.replace(tmp, path)
    return path


def metrics_snapshot(run: RunTelemetry) -> Dict:
    """JSON-ready metrics document for one run."""
    return {
        "n_tasks": run.n_tasks,
        "hosts": run.hosts_seen(),
        "counters": run.counter_totals(),
        "counters_by_task": {
            name: {str(task): v for task, v in sorted(per.items())}
            for name, per in sorted(run.counters.items())
        },
        "gauges": run.gauge_maxima(),
        "step_seconds": run.breakdown().as_dict(),
        "projected_step_seconds": (
            run.projected.breakdown().as_dict()
            if run.projected is not None
            else None
        ),
    }


def export_run_artifacts(
    run: RunTelemetry, directory: str | os.PathLike
) -> Dict[str, Path]:
    """Write the full artifact set for a run under ``directory``:
    ``telemetry.json`` (reloadable by ``metaprep trace``), the Perfetto
    ``trace.json``, the JSON ``metrics.json``, and the Prometheus
    ``metaprep.prom``.  Returns name -> path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "telemetry": run.save(directory / RUN_FILENAME),
        "trace": directory / TRACE_FILENAME,
        "metrics": directory / METRICS_FILENAME,
        "prometheus": write_prometheus_textfile(
            directory / PROM_FILENAME,
            {name: float(v) for name, v in run.counter_totals().items()},
            {name: float(v) for name, v in run.gauge_maxima().items()},
        ),
    }
    write_measured_trace(run, paths["trace"])
    tmp = paths["metrics"].with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(metrics_snapshot(run), indent=2, sort_keys=True))
    os.replace(tmp, paths["metrics"])
    return paths

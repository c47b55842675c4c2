"""The driver's event sink and the merged run record.

The driver owns one :class:`TelemetryCollector` per run and installs it
as its thread's sink (:func:`repro.telemetry.activate`).  Driver-side
events land in it directly; events a pool job or a worker daemon
captured come home with the job's result or the daemon's reply and are
folded in by the thread that called ``map`` — so by the time a stage's
``map`` returns, its events are already in the collector, and
:meth:`TelemetryCollector.finalize` only has to sort and sum.  Nothing
touches the filesystem until the exporters write a finished record.

:class:`RunTelemetry` is the merged, JSON-serializable product: spans,
counter totals and gauge high-water marks keyed by (name, task), the
run's clock origin, and optionally the run's
:class:`~repro.runtime.timing.ProjectedTimes` so the measured-vs-
projected report (:mod:`repro.telemetry.compare`) and the standalone
``metaprep trace`` verb need nothing else.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.runtime.timing import ProjectedTimes
from repro.runtime.work import StepNames
from repro.telemetry.runtime import KIND_COUNTER, KIND_SPAN
from repro.util.timers import TimeBreakdown

#: task id used for driver-side events
DRIVER_TASK = -1

RUN_FILENAME = "telemetry.json"


@dataclass(frozen=True)
class SpanEvent:
    """One merged span on the run's monotonic timeline."""

    name: str
    task: int
    aux: int
    t0_ns: int
    t1_ns: int
    #: address of the worker daemon that ran the span's job; "" for
    #: spans emitted in the driver's host (serial and process engines)
    host: str = ""

    @property
    def seconds(self) -> float:
        return (self.t1_ns - self.t0_ns) / 1e9


@dataclass
class RunTelemetry:
    """Everything one run's events said, merged."""

    t0_ns: int
    n_tasks: int
    spans: List[SpanEvent] = field(default_factory=list)
    #: counter name -> task -> summed value
    counters: Dict[str, Dict[int, int]] = field(default_factory=dict)
    #: gauge name -> task -> max observed value
    gauges: Dict[str, Dict[int, int]] = field(default_factory=dict)
    projected: Optional[ProjectedTimes] = None

    # ------------------------------------------------------------------
    # span aggregation (barrier semantics, matching ProjectedTimes)
    # ------------------------------------------------------------------
    def per_task_step_seconds(self, step: str) -> Dict[int, float]:
        """Summed span seconds per task for one step."""
        out: Dict[int, float] = {}
        for s in self.spans:
            if s.name == step:
                out[s.task] = out.get(s.task, 0.0) + s.seconds
        return out

    def step_seconds(self, step: str) -> float:
        """Critical-path time of a step: max over tasks of that task's
        summed span time — the same barrier semantics as
        :meth:`ProjectedTimes.step_seconds`."""
        per_task = self.per_task_step_seconds(step)
        return max(per_task.values()) if per_task else 0.0

    def step_names(self) -> List[str]:
        """Steps with spans, paper order first, extras appended."""
        seen = {s.name for s in self.spans}
        ordered = [s for s in StepNames.ORDER if s in seen]
        extras = sorted(seen.difference(StepNames.ORDER))
        return ordered + extras

    def breakdown(self) -> TimeBreakdown:
        bd = TimeBreakdown()
        for step in self.step_names():
            bd.add(step, self.step_seconds(step))
        return bd

    def tasks_seen(self) -> List[int]:
        return sorted({s.task for s in self.spans})

    def hosts_seen(self) -> List[str]:
        """Distinct non-empty span host identities (worker addresses)."""
        return sorted({s.host for s in self.spans if s.host})

    # ------------------------------------------------------------------
    # counters / gauges
    # ------------------------------------------------------------------
    def counter_total(self, name: str) -> int:
        return sum(self.counters.get(name, {}).values())

    def counter_totals(self) -> Dict[str, int]:
        return {name: self.counter_total(name) for name in sorted(self.counters)}

    def gauge_max(self, name: str) -> int:
        per_task = self.gauges.get(name, {})
        return max(per_task.values()) if per_task else 0

    def gauge_maxima(self) -> Dict[str, int]:
        return {name: self.gauge_max(name) for name in sorted(self.gauges)}

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict:
        doc: Dict = {
            "t0_ns": self.t0_ns,
            "n_tasks": self.n_tasks,
            "spans": [
                # the 6th (host) element appears only on spans a worker
                # daemon sent home, keeping in-host documents
                # byte-compatible with the pre-distributed format
                (
                    [s.name, s.task, s.aux, s.t0_ns, s.t1_ns, s.host]
                    if s.host
                    else [s.name, s.task, s.aux, s.t0_ns, s.t1_ns]
                )
                for s in self.spans
            ],
            "counters": {
                name: {str(task): v for task, v in sorted(per.items())}
                for name, per in sorted(self.counters.items())
            },
            "gauges": {
                name: {str(task): v for task, v in sorted(per.items())}
                for name, per in sorted(self.gauges.items())
            },
        }
        if self.projected is not None:
            doc["projected"] = {
                "machine": self.projected.machine,
                "n_tasks": self.projected.n_tasks,
                "per_task": {
                    step: [float(x) for x in arr]
                    for step, arr in self.projected.per_task.items()
                },
            }
        return doc

    @classmethod
    def from_dict(cls, doc: Dict) -> "RunTelemetry":
        projected = None
        if "projected" in doc:
            p = doc["projected"]
            projected = ProjectedTimes(
                machine=p["machine"],
                n_tasks=int(p["n_tasks"]),
                per_task={
                    step: np.asarray(arr, dtype=np.float64)
                    for step, arr in p["per_task"].items()
                },
            )
        return cls(
            t0_ns=int(doc["t0_ns"]),
            n_tasks=int(doc["n_tasks"]),
            spans=[
                SpanEvent(
                    row[0],
                    int(row[1]),
                    int(row[2]),
                    int(row[3]),
                    int(row[4]),
                    host=str(row[5]) if len(row) > 5 else "",
                )
                for row in doc.get("spans", [])
            ],
            counters={
                name: {int(task): int(v) for task, v in per.items()}
                for name, per in doc.get("counters", {}).items()
            },
            gauges={
                name: {int(task): int(v) for task, v in per.items()}
                for name, per in doc.get("gauges", {}).items()
            },
            projected=projected,
        )

    def save(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(self.as_dict(), sort_keys=True))
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunTelemetry":
        return cls.from_dict(json.loads(Path(path).read_text()))


class TelemetryCollector:
    """One run's event sink: an append-only list of event tuples.

    Install it with :func:`repro.telemetry.activate`; the run's
    emissions and every folded job's events are appended here, and
    :meth:`finalize` turns them into the :class:`RunTelemetry`.
    """

    def __init__(self) -> None:
        self.t0_ns = time.perf_counter_ns()
        self.events: List[tuple] = []
        self.append = self.events.append
        self.extend = self.events.extend

    def finalize(
        self, n_tasks: int, projected: ProjectedTimes | None = None
    ) -> RunTelemetry:
        """The immutable run record: spans sorted by start, counters
        summed and gauges maxed per (name, task)."""
        spans: List[SpanEvent] = []
        counters: Dict[str, Dict[int, int]] = {}
        gauges: Dict[str, Dict[int, int]] = {}
        for kind, name, task, aux, a, b, *host in self.events:
            task = int(task)
            if kind == KIND_SPAN:
                spans.append(SpanEvent(name, task, int(aux), a, b, *host))
            elif kind == KIND_COUNTER:
                per = counters.setdefault(name, {})
                per[task] = per.get(task, 0) + a
            else:
                per = gauges.setdefault(name, {})
                per[task] = max(per.get(task, 0), a)
        return RunTelemetry(
            t0_ns=self.t0_ns,
            n_tasks=n_tasks,
            spans=sorted(spans, key=lambda s: (s.t0_ns, s.task, s.name)),
            counters=counters,
            gauges=gauges,
            projected=projected,
        )

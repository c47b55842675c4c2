"""In-memory span recorder for the traced pass (never the end-to-end runs).

A span is (name, start, end, parent, workload); spans nest per thread; self
time is duration minus child spans.  Written once, at exit, by :func:`write`.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager, nullcontext


class Recorder:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._open = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._open.__dict__.setdefault("stack", [])
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": stack[-1] if stack else None,
               "workload": self.workload, "tid": threading.get_ident()}
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_time(self, rec: dict) -> float:
        return rec["end"] - rec["start"] - sum(
            s["end"] - s["start"] for s in self.spans if s["parent"] is rec)


def span(rec: Recorder | None, name: str):
    """``rec.span(name)``, or a no-op when tracing is off."""
    return rec.span(name) if rec is not None else nullcontext()


def write(path: str, recorders: list[Recorder]) -> None:
    """Chrome-trace JSON: one "X" event per span, microseconds."""
    events = [{"name": s["name"], "ph": "X", "pid": pid, "tid": s["tid"],
               "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
               "args": {"workload": s["workload"], "self_s": r.self_time(s),
                        "parent": s["parent"] and s["parent"]["name"]}}
              for pid, r in enumerate(recorders) for s in r.spans]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events}, fh)

"""The span/counter API stage code calls on the hot path.

Mirrors the worker-shared-context pattern of
:mod:`repro.runtime.executor`: state is thread-local, installed by
:func:`activate` (the driver activates its collector's settings; worker
job functions re-activate the settings shipped in the worker context,
which is a no-op when already active), and every emission function is a
no-op when nothing is active — a disabled run pays one thread-local
``getattr`` per call site.

Each (process, thread) writes its own spool file, named
``w<pid>-<tid>.evt`` inside the collector's spool directory, so no two
writers ever share a file and the hot path takes no locks.  A fork
guard re-opens the writer under the child's pid: under the process
engine's ``fork`` start method a worker inherits the driver's
thread-local state, and appending to the parent's file through the
inherited fd would interleave two processes' streams.

All timestamps are ``time.perf_counter_ns()`` — CLOCK_MONOTONIC on
Linux, which is comparable across processes on the same host (the
driver/worker spans of one run share a timeline).  No wall-clock source
is used anywhere in this package; ``metaprep check`` (MP201) enforces
that, see :mod:`repro.analysis.checkers.determinism`.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.telemetry.events import (
    KIND_COUNTER,
    KIND_GAUGE,
    KIND_SPAN,
    SpoolWriter,
)
from repro.util.timers import TimeBreakdown


@dataclass(frozen=True)
class TelemetrySettings:
    """What a worker needs to emit events: the spool directory.

    Picklable by design — it rides inside the executor's shared worker
    context across the process-pool boundary.

    ``host_id`` disambiguates spools merged from multiple hosts: the
    (pid, tid) identity in the spool filename can collide across hosts,
    so a distributed-engine worker daemon stamps its advertised address
    here before any of its threads open a writer.  Empty for in-host
    engines (the historical filenames are unchanged).
    """

    spool_dir: str
    host_id: str = ""


_STATE = threading.local()


def activate(settings: TelemetrySettings) -> None:
    """Install ``settings`` for this thread.  Idempotent for the same
    spool directory (the serial engine re-activates the driver's own
    settings on every job); switching directories closes the old writer.
    """
    current = getattr(_STATE, "settings", None)
    if current is not None and current.spool_dir == settings.spool_dir:
        return
    deactivate()
    _STATE.settings = settings


def deactivate() -> None:
    """Drop this thread's telemetry state and close its writer."""
    writer = getattr(_STATE, "writer", None)
    if writer is not None:
        writer.close()
    _STATE.settings = None
    _STATE.writer = None
    _STATE.writer_pid = -1


def active_settings() -> Optional[TelemetrySettings]:
    return getattr(_STATE, "settings", None)


def enabled() -> bool:
    """True when this thread will emit events.  Call sites computing a
    non-trivial value for a counter should gate on this."""
    return getattr(_STATE, "settings", None) is not None


def _writer() -> Optional[SpoolWriter]:
    settings = getattr(_STATE, "settings", None)
    if settings is None:
        return None
    writer = getattr(_STATE, "writer", None)
    pid = os.getpid()
    if writer is None or getattr(_STATE, "writer_pid", -1) != pid:
        # first event on this thread, or a fork-inherited writer whose
        # fd belongs to the parent's stream: open this process's own file
        suffix = f"@{settings.host_id}" if settings.host_id else ""
        path = os.path.join(
            settings.spool_dir,
            f"w{pid}-{threading.get_native_id()}{suffix}.evt",
        )
        try:
            writer = SpoolWriter(path)
        except OSError:
            # spool already swept (the run is over); disable quietly
            deactivate()
            return None
        _STATE.writer = writer
        _STATE.writer_pid = pid
    return writer


# ----------------------------------------------------------------------
# emission API
# ----------------------------------------------------------------------
def record_span(
    name: str, t0_ns: int, t1_ns: int, task: int = -1, aux: int = -1
) -> None:
    """Emit a completed span from timestamps already taken (by
    :class:`span`); a no-op when telemetry is not active."""
    writer = _writer()
    if writer is not None:
        writer.write(KIND_SPAN, name, task, aux, t0_ns, t1_ns)


class span:
    """Time the ``with`` body once, where it runs — the one timing seam.

    With ``times`` (a :class:`~repro.util.timers.TimeBreakdown`) the
    clock is always read and the seconds are added under ``name``; the
    spool span is emitted from the same two timestamps, and only when
    telemetry is active.  Without ``times`` a disabled run reads no
    clock at all.  The interval is recorded even when the body raises.

    ``t0_ns`` / ``t1_ns`` hold the measured interval after exit, so a
    collective (MergeCC) can stamp it on every task row through
    :func:`record_span` without a second clock read.
    """

    __slots__ = ("name", "task", "aux", "times", "t0_ns", "t1_ns")

    def __init__(
        self,
        name: str,
        task: int = -1,
        aux: int = -1,
        times: Optional[TimeBreakdown] = None,
    ) -> None:
        self.name = name
        self.task = task
        self.aux = aux
        self.times = times
        self.t0_ns: Optional[int] = None
        self.t1_ns: Optional[int] = None

    def __enter__(self) -> "span":
        if self.times is not None or enabled():
            self.t0_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        if self.t0_ns is None:
            return
        self.t1_ns = time.perf_counter_ns()
        if self.times is not None:
            self.times.add(self.name, (self.t1_ns - self.t0_ns) / 1e9)
        record_span(self.name, self.t0_ns, self.t1_ns, self.task, self.aux)


def add_counter(
    name: str, value: int = 1, task: int = -1, aux: int = -1
) -> None:
    """Add ``value`` to a counter; totals are summed at merge time."""
    writer = _writer()
    if writer is not None:
        writer.write(KIND_COUNTER, name, task, aux, int(value), 0)


def set_gauge(name: str, value: int, task: int = -1, aux: int = -1) -> None:
    """Sample a gauge; merge keeps the maximum (high-water mark)."""
    writer = _writer()
    if writer is not None:
        writer.write(KIND_GAUGE, name, task, aux, int(value), 0)

"""The span/counter API stage code calls on the hot path.

Mirrors the worker-shared-context pattern of
:mod:`repro.runtime.executor`: state is thread-local.  :func:`activate`
installs the driver's sink (the run's
:class:`~repro.telemetry.collect.TelemetryCollector`), :func:`capture`
installs a fresh buffer around one unit of work and hands back what was
emitted inside it, and every emission function is a no-op when the
thread has no sink — a disabled run pays one thread-local ``getattr``
per call site.

Events ride home with the work.  A process-pool job runs under
:func:`capture` and returns its events beside its result; a worker
daemon serves each request under :func:`capture` and sends the events
ahead of its reply.  The thread that called ``map`` or sent the request
hands them to :func:`fold`, which appends them to its own sink.  Only a
capture buffer ever leaves a process, so a forked pool worker never
re-reports the driver state it inherited.

An event is the plain tuple ``(kind, name, task, aux, a, b)``.
``kind`` selects the payload interpretation: a :data:`KIND_SPAN`
carries monotonic nanosecond timestamps ``(t0_ns, t1_ns)`` in
``(a, b)``; a :data:`KIND_COUNTER` carries a delta in ``a``; a
:data:`KIND_GAUGE` carries a sampled value in ``a`` (kept by max — the
high-water interpretation).  ``task`` is the owning MPI-rank analogue
(``-1`` for driver-side events) and ``aux`` is a per-name discriminator
(chunk id, pass index, destination task...).  A span the driver
received from a worker daemon carries that daemon's address as a
seventh element.  Names come from the static :data:`WELL_KNOWN_NAMES`
registry; an unregistered name raises at emission.

All timestamps are ``time.perf_counter_ns()`` — CLOCK_MONOTONIC on
Linux, which is comparable across processes on the same host (the
driver/worker spans of one run share a timeline).  No wall-clock source
is used anywhere in this package;
``tests/analysis/test_hazards.py::test_no_wall_clock_outside_the_service_layer``
enforces that.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.runtime.work import StepNames
from repro.util.timers import TimeBreakdown

# ----------------------------------------------------------------------
# events and the name registry
# ----------------------------------------------------------------------
KIND_SPAN = 1
KIND_COUNTER = 2
KIND_GAUGE = 3

#: span names: the paper's steps, the two IndexCreate sub-steps of
#: Table 5 (:mod:`repro.index.fastqpart`, on the driver row of a run that
#: builds its own index) and the gateway's per-request span
SPAN_NAMES = tuple(StepNames.ORDER) + (
    "IndexCreate-FASTQPart",
    "IndexCreate-merHist",
    "gateway.request",
)

#: counter names wired through the hot paths (driver, jobs, workers,
#: the distributed block plane and the HTTP gateway)
COUNTER_NAMES = (
    "kmergen.tuples_routed",
    "comm.bytes_moved",
    "comm.wire_bytes",
    "buffers.bytes_allocated",
    "sort.radix_passes",
    "sort.histogram_fills",
    "cc.unions",
    "cc.find_steps",
    "cc.retries",
    "store.hits",
    "store.misses",
    "spill.bytes_written",
    "spill.bytes_read",
    "net.bytes_sent",
    "net.bytes_recv",
    "net.frames",
    "worker.connects",
    "gateway.requests",
    "gateway.bytes_streamed",
    "gateway.coalesced",
    "gateway.rejected",
)

#: gauge names (kept by max: high-water marks)
GAUGE_NAMES = (
    "buffers.pool_in_use_blocks",
    "buffers.pool_in_use_bytes",
    "buffers.pool_hwm_bytes",
    "service.queue_depth",
    "spill.blocks_resident",
    "spill.tuple_bytes_resident",
    "proc.peak_rss_kb",
)

#: the static name registry
WELL_KNOWN_NAMES: Tuple[str, ...] = SPAN_NAMES + COUNTER_NAMES + GAUGE_NAMES

_REGISTERED = frozenset(WELL_KNOWN_NAMES)


def registered(name: str) -> str:
    """``name`` itself; unknown names are a programming error (register
    them in :data:`WELL_KNOWN_NAMES`), not a runtime fallback."""
    if name not in _REGISTERED:
        raise ValueError(
            f"unregistered telemetry name {name!r}; add it to "
            "repro.telemetry.runtime.WELL_KNOWN_NAMES"
        )
    return name


_STATE = threading.local()


def activate(sink) -> None:
    """Install ``sink`` as this thread's event sink: anything with
    ``append`` and ``extend`` (the run's collector, or a plain list)."""
    _STATE.sink = sink


def deactivate() -> None:
    """Drop this thread's sink; emissions become no-ops again."""
    _STATE.sink = None


def enabled() -> bool:
    """True when this thread will emit events.  Call sites computing a
    non-trivial value for a counter should gate on this."""
    return getattr(_STATE, "sink", None) is not None


@contextmanager
def capture() -> Iterator[List[tuple]]:
    """Collect this thread's events of the ``with`` body in a fresh
    list (yielded), then restore the sink that was active before."""
    outer = getattr(_STATE, "sink", None)
    events: List[tuple] = []
    _STATE.sink = events
    try:
        yield events
    finally:
        _STATE.sink = outer


def fold(events: Sequence[tuple], host: str = "") -> None:
    """Append events another process captured to this thread's sink.

    ``host`` — the worker daemon's address — is stamped on the spans,
    which is what :meth:`RunTelemetry.hosts_seen` reports.
    """
    sink = getattr(_STATE, "sink", None)
    if sink is None or not events:
        return
    if host:
        events = [ev + (host,) if ev[0] == KIND_SPAN else ev for ev in events]
    sink.extend(events)


# ----------------------------------------------------------------------
# emission API
# ----------------------------------------------------------------------
def record_span(
    name: str, t0_ns: int, t1_ns: int, task: int = -1, aux: int = -1
) -> None:
    """Emit a completed span from timestamps already taken (by
    :class:`span`); a no-op when telemetry is not active."""
    sink = getattr(_STATE, "sink", None)
    if sink is not None:
        sink.append((KIND_SPAN, registered(name), task, aux, t0_ns, t1_ns))


class span:
    """Time the ``with`` body once, where it runs — the one timing seam.

    With ``times`` (a :class:`~repro.util.timers.TimeBreakdown`) the
    clock is always read and the seconds are added under ``name``; the
    span event is emitted from the same two timestamps, and only when
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
    """Add ``value`` to a counter; totals are summed when the run folds."""
    sink = getattr(_STATE, "sink", None)
    if sink is not None:
        sink.append((KIND_COUNTER, registered(name), task, aux, int(value), 0))


def set_gauge(name: str, value: int, task: int = -1, aux: int = -1) -> None:
    """Sample a gauge; the run keeps the maximum (high-water mark)."""
    sink = getattr(_STATE, "sink", None)
    if sink is not None:
        sink.append((KIND_GAUGE, registered(name), task, aux, int(value), 0))

"""``repro.telemetry`` — real-run observability.

The simulated side of the repo (cost model, projections) predicts where
time *should* go; this package observes where it *actually* goes, on
every run, with near-zero overhead when disabled:

* :mod:`~repro.telemetry.runtime` — the span/counter API stage code
  calls (thread-local, no-op unless activated); ``span(..., times=)``
  is the one place a pipeline step is timed, telemetry on or off;
  ``capture()`` buffers one job's events so they ride home with its
  result, and ``fold()`` hands them to the caller's sink; the event
  kinds and the static name registry live here too;
* :mod:`~repro.telemetry.collect` — the driver-side collector (the
  run's sink) and the merged :class:`RunTelemetry` it finalizes into;
* :mod:`~repro.telemetry.exporters` — Perfetto trace, Prometheus
  textfile, JSON metrics snapshot;
* :mod:`~repro.telemetry.compare` — the measured-vs-projected gap
  report.

The emission API is re-exported here so instrumentation sites read
``telemetry.add_counter(...)`` / ``telemetry.span(...)``.
"""

from repro.telemetry.runtime import (
    activate,
    add_counter,
    capture,
    deactivate,
    enabled,
    fold,
    record_span,
    set_gauge,
    span,
)

__all__ = [
    "activate",
    "add_counter",
    "capture",
    "deactivate",
    "enabled",
    "fold",
    "record_span",
    "set_gauge",
    "span",
]

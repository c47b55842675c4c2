"""``repro.telemetry`` — real-run observability.

The simulated side of the repo (cost model, projections) predicts where
time *should* go; this package observes where it *actually* goes, on
every run, with near-zero overhead when disabled:

* :mod:`~repro.telemetry.runtime` — the span/counter API stage code
  calls (thread-local, no-op unless activated); ``span(..., times=)``
  is the one place a pipeline step is timed, telemetry on or off;
* :mod:`~repro.telemetry.events` — the fixed-size binary record format
  workers append to per-(process, thread) spool files, lock-free and
  crash-safe;
* :mod:`~repro.telemetry.collect` — the driver-side collector merging
  spools at stage barriers into a :class:`RunTelemetry`;
* :mod:`~repro.telemetry.exporters` — Perfetto trace, Prometheus
  textfile, JSON metrics snapshot;
* :mod:`~repro.telemetry.compare` — the measured-vs-projected gap
  report.

The emission API is re-exported here so instrumentation sites read
``telemetry.add_counter(...)`` / ``telemetry.span(...)``.
"""

from repro.telemetry.runtime import (
    TelemetrySettings,
    activate,
    active_settings,
    add_counter,
    deactivate,
    enabled,
    record_span,
    set_gauge,
    span,
)

__all__ = [
    "TelemetrySettings",
    "activate",
    "active_settings",
    "add_counter",
    "deactivate",
    "enabled",
    "record_span",
    "set_gauge",
    "span",
]

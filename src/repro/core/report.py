"""Plain-text report formatting for CLI output and benchmark harnesses.

The formatters emit the same row/column structure as the paper's tables so
EXPERIMENTS.md comparisons are one-to-one.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cc.components import ComponentSummary
from repro.runtime.work import StepNames
from repro.util.sizes import human_count
from repro.util.timers import TimeBreakdown


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Fixed-width text table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(cells):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_breakdown(
    breakdown: TimeBreakdown, title: str = "step times"
) -> str:
    """Render a per-step time breakdown in the paper's step order."""
    rows: List[List[object]] = []
    for step in StepNames.ORDER:
        if step in breakdown.seconds:
            rows.append([step, f"{breakdown.seconds[step]:.3f}"])
    for step, sec in breakdown.seconds.items():
        if step not in StepNames.ORDER:
            rows.append([step, f"{sec:.3f}"])
    rows.append(["Total", f"{breakdown.total:.3f}"])
    return f"{title}\n" + format_table(["step", "seconds"], rows)


def format_partition_summary(summary: ComponentSummary) -> str:
    """Render a partition summary as a small text table."""
    rows = [
        ["reads", human_count(summary.n_reads)],
        ["components", human_count(summary.n_components)],
        [
            "largest component",
            f"{summary.largest_component_size} "
            f"({summary.largest_component_percent:.1f}% of reads)",
        ],
        ["singleton components", human_count(summary.singleton_components)],
    ]
    return format_table(["metric", "value"], rows)


def format_gap_report(report) -> str:
    """Render a measured-vs-projected gap table
    (:class:`repro.telemetry.compare.GapReport`).

    One row per step: measured seconds, projected seconds, their ratio,
    and a ``DRIFT`` marker when the ratio escapes the report's band.
    """
    lo, hi = report.band
    rows: List[List[object]] = []
    for row in report.rows:
        ratio = f"{row.ratio:.2f}" if row.ratio is not None else "-"
        rows.append(
            [
                row.step,
                f"{row.measured_seconds:.3f}",
                f"{row.projected_seconds:.3f}",
                ratio,
                "DRIFT" if row.drifted else "",
            ]
        )
    total_ratio = (
        f"{report.total_ratio:.2f}" if report.total_ratio is not None else "-"
    )
    rows.append(
        [
            "Total",
            f"{report.measured_total:.3f}",
            f"{report.projected_total:.3f}",
            total_ratio,
            "",
        ]
    )
    title = f"measured vs projected (drift band {lo:g}-{hi:g}x)"
    return f"{title}\n" + format_table(
        ["step", "measured_s", "projected_s", "ratio", "flag"], rows
    )


def _short(value: object, width: int = 40) -> str:
    text = str(value)
    return text if len(text) <= width else text[: width - 1] + "…"


def format_job_table(statuses: Sequence[Dict]) -> str:
    """Render ``metaprep status`` rows: one line per service job.

    ``statuses`` are job status documents as produced by
    :meth:`repro.service.jobs.JobRecord.status_dict`.
    """
    rows: List[List[object]] = []
    for s in statuses:
        started, finished = s.get("started_at"), s.get("finished_at")
        wait = ""
        if started and s.get("submitted_at"):
            wait = f"{max(0.0, started - s['submitted_at']):.2f}"
        run = ""
        if started and finished:
            run = f"{max(0.0, finished - started):.2f}"
        cache = (s.get("metrics") or {}).get("partition_cache", "")
        rows.append(
            [
                s.get("job_id", "?"),
                s.get("state", "?"),
                s.get("attempt", 0),
                wait,
                run,
                cache,
                _short(s.get("error") or ""),
            ]
        )
    return format_table(
        ["job", "state", "attempt", "wait_s", "run_s", "cache", "error"], rows
    )


def format_job_metrics(status: Dict) -> str:
    """Render one job's structured metrics (queue wait, cache hit/miss,
    per-step measured times) as nested key/value rows."""
    metrics = dict(status.get("metrics") or {})
    breakdown = metrics.pop("measured_seconds", None)
    rows: List[List[object]] = [["state", status.get("state", "?")]]
    if status.get("started_at") and status.get("submitted_at"):
        rows.append(
            ["queue wait (s)",
             f"{max(0.0, status['started_at'] - status['submitted_at']):.3f}"]
        )
    for key in sorted(metrics):
        rows.append([key, _short(metrics[key], 60)])
    out = format_table(["metric", "value"], rows)
    if breakdown:
        out += "\n\n" + format_breakdown(
            TimeBreakdown(dict(breakdown)), "measured step times"
        )
    return out

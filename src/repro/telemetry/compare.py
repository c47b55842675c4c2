"""Measured-vs-projected gap analysis.

Joins a run's merged spans against its §3.7 cost-model projection
(:class:`~repro.runtime.timing.ProjectedTimes`), step by step, under the
same barrier semantics both sides already use: a step's time is the max
over tasks.  The interesting output is the per-step ratio
``measured / projected`` — a calibrated model should hold it near 1 on
the machine it was calibrated for, and a step whose ratio drifts
outside the band is where the implementation and the model disagree
(the next bottleneck to look at, per the paper's Figures 5-7
methodology).

Steps faster than ``min_seconds`` on *both* sides are never flagged:
microsecond steps on laptop-scale data ratio wildly without meaning
anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.runtime.timing import ProjectedTimes
from repro.runtime.work import StepNames
from repro.telemetry.collect import RunTelemetry
from repro.util.timers import TimeBreakdown

#: measured/projected ratios outside this band count as drift
DEFAULT_RATIO_BAND = (0.5, 2.0)

#: both sides below this are too small to ratio meaningfully
DEFAULT_MIN_SECONDS = 1e-3


@dataclass(frozen=True)
class StepGap:
    """One step's measured-vs-projected comparison."""

    step: str
    measured_seconds: float
    projected_seconds: float
    #: measured / projected; None when the projection is ~zero
    ratio: Optional[float]
    drifted: bool


@dataclass
class GapReport:
    """The per-step gap table for one run."""

    rows: List[StepGap] = field(default_factory=list)
    band: Tuple[float, float] = DEFAULT_RATIO_BAND

    @property
    def drifted(self) -> List[StepGap]:
        return [row for row in self.rows if row.drifted]

    @property
    def measured_total(self) -> float:
        return sum(row.measured_seconds for row in self.rows)

    @property
    def projected_total(self) -> float:
        return sum(row.projected_seconds for row in self.rows)

    @property
    def total_ratio(self) -> Optional[float]:
        if self.projected_total <= 0:
            return None
        return self.measured_total / self.projected_total


def compare_measured_projected(
    run: RunTelemetry | TimeBreakdown,
    projected: ProjectedTimes | None = None,
    band: Tuple[float, float] = DEFAULT_RATIO_BAND,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> GapReport:
    """Build the gap report.

    ``run`` is a merged :class:`RunTelemetry` (its attached projection
    is used when ``projected`` is not given) or a plain measured
    :class:`TimeBreakdown`.  Steps appear in the paper's order; a step
    present on either side appears in the table.  Measured spans outside
    the cost model's steps (the IndexCreate sub-steps) have no projection
    to drift from and are left to the trace.
    """
    if isinstance(run, RunTelemetry):
        measured_bd = run.breakdown()
        if projected is None:
            projected = run.projected
    else:
        measured_bd = run
    if projected is None:
        raise ValueError(
            "no projection to compare against: pass projected= or use a "
            "RunTelemetry with an attached ProjectedTimes"
        )
    lo, hi = band
    if not (0 < lo < hi):
        raise ValueError(f"band must satisfy 0 < lo < hi, got {band}")

    steps = [
        s
        for s in StepNames.ORDER
        if s in measured_bd.seconds or s in projected.per_task
    ]
    report = GapReport(band=band)
    for step in steps:
        measured = measured_bd.get(step)
        proj = projected.step_seconds(step)
        ratio = measured / proj if proj > 0 else None
        negligible = measured < min_seconds and proj < min_seconds
        drifted = (
            not negligible
            and (ratio is None or ratio < lo or ratio > hi)
        )
        report.rows.append(
            StepGap(
                step=step,
                measured_seconds=measured,
                projected_seconds=proj,
                ratio=ratio,
                drifted=drifted,
            )
        )
    return report

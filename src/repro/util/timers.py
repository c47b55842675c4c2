"""The per-step seconds accumulator of the pipeline and benchmarks.

The pipeline reports a per-step :class:`TimeBreakdown` mirroring the stacked
bars of the paper's Figures 5-7 (KmerGen-I/O, KmerGen, KmerGen-Comm,
LocalSort, LocalCC-Opt, Merge-Comm, MergeCC, CC-I/O).  It holds seconds and
reads no clock: steps are timed by :class:`repro.telemetry.runtime.span`,
which adds into a breakdown passed as ``times=``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class TimeBreakdown:
    """Accumulated wall time per named step, in insertion order.

    >>> times = TimeBreakdown()
    >>> times.add("KmerGen", 1.5)
    >>> times.add("KmerGen", 0.5)
    >>> times.get("KmerGen"), times.total
    (2.0, 2.0)
    """

    seconds: Dict[str, float] = field(default_factory=dict)

    def add(self, step: str, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative duration for {step}: {dt}")
        self.seconds[step] = self.seconds.get(step, 0.0) + dt

    def merge(self, other: "TimeBreakdown") -> "TimeBreakdown":
        for step, dt in other.seconds.items():
            self.add(step, dt)
        return self

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def items(self) -> List[Tuple[str, float]]:
        return list(self.seconds.items())

    def get(self, step: str) -> float:
        return self.seconds.get(step, 0.0)

    def scaled(self, factor: float) -> "TimeBreakdown":
        return TimeBreakdown({k: v * factor for k, v in self.seconds.items()})

    def as_dict(self) -> Dict[str, float]:
        return dict(self.seconds)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        rows = ", ".join(f"{k}={v:.3f}s" for k, v in self.seconds.items())
        return f"TimeBreakdown({rows}, total={self.total:.3f}s)"

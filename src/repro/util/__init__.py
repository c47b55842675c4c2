"""Shared utilities: logging, timing, size formatting, deterministic RNG."""

from repro.util.logging import get_logger, set_verbosity
from repro.util.timers import TimeBreakdown
from repro.util.sizes import human_bytes, human_count, parse_bytes
from repro.util.rng import rng_for, derive_seed
from repro.util.validation import (
    check_positive,
    check_in_range,
    check_power_of_two,
    require,
)

__all__ = [
    "get_logger",
    "set_verbosity",
    "TimeBreakdown",
    "human_bytes",
    "human_count",
    "parse_bytes",
    "rng_for",
    "derive_seed",
    "check_positive",
    "check_in_range",
    "check_power_of_two",
    "require",
]

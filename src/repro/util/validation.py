"""Tiny argument-validation helpers with consistent error text."""

from __future__ import annotations


def check_positive(name: str, value: float) -> None:
    """Check ``value > 0``."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_in_range(name: str, value: float, lo: float, hi: float) -> None:
    """Check ``lo <= value <= hi`` (inclusive both ends)."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")

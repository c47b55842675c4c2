"""Human-readable byte/count formatting and parsing."""

from __future__ import annotations

_BYTE_UNITS = ["B", "KB", "MB", "GB", "TB", "PB"]
_COUNT_UNITS = ["", "K", "M", "B", "T"]

def human_bytes(n: float) -> str:
    """Format a byte count.

    >>> human_bytes(49 * 2**30)
    '49.00 GB'
    >>> human_bytes(512)
    '512 B'
    """
    if n < 0:
        raise ValueError("byte count must be non-negative")
    value = float(n)
    for unit in _BYTE_UNITS:
        if value < 1024.0 or unit == _BYTE_UNITS[-1]:
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.2f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def human_count(n: float) -> str:
    """Format a quantity with K/M/B suffixes (decimal, like the paper's
    '1.13 billion reads').

    >>> human_count(1_130_000_000)
    '1.13B'
    """
    if n < 0:
        raise ValueError("count must be non-negative")
    value = float(n)
    for unit in _COUNT_UNITS:
        if value < 1000.0 or unit == _COUNT_UNITS[-1]:
            if unit == "":
                return f"{int(value)}"
            return f"{value:.2f}{unit}"
        value /= 1000.0
    raise AssertionError("unreachable")

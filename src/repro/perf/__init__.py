"""Substrate calibration: this host's kernel throughputs, measured."""

from repro.perf.calibrate import SubstrateRates, calibrate

__all__ = [
    "SubstrateRates",
    "calibrate",
]

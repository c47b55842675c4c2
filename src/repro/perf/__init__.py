"""Substrate calibration: this host's kernel throughputs, measured."""

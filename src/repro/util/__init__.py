"""Shared utilities: logging, timing, size formatting, deterministic RNG."""

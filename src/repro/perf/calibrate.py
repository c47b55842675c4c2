"""Substrate calibration: measure this host's kernel throughputs.

The machine models in :mod:`repro.runtime.machines` carry per-core rate
constants for Edison/Ganga.  This module measures the *same quantities on
the current Python substrate* — tuples enumerated, tuple-passes sorted,
edges unioned, entries merged per second — so that

* benchmark reports can show measured-vs-modeled side by side, and
* users running on their own hardware can sanity-check whether a slow run
  is the algorithm or the host.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.cc.dsf import DisjointSetForest
from repro.kmers.codec import MAX_K_ONE_LIMB, KmerArray
from repro.kmers.engine import KmerTuples, enumerate_canonical_kmers
from repro.seqio.records import ReadBatch
from repro.sort.radix import radix_passes_for, radix_sort_tuples
from repro.util.rng import rng_for
from repro.util.validation import check_in_range


@dataclass(frozen=True)
class SubstrateRates:
    """Measured single-thread throughputs on this host (ops/second)."""

    kmer_rate: float  # canonical k-mers enumerated /s
    sort_rate: float  # tuple-passes through the radix sort /s
    uf_rate: float  # union-find edge operations /s
    merge_rate: float  # component-array entries folded /s

    def as_dict(self) -> dict:
        return {
            "kmer_rate": self.kmer_rate,
            "sort_rate": self.sort_rate,
            "uf_rate": self.uf_rate,
            "merge_rate": self.merge_rate,
        }


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def measure_kmer_rate(n_bases: int = 300_000, k: int = 27, repeats: int = 3) -> float:
    """Canonical k-mers enumerated per second (best of ``repeats``)."""
    rng = rng_for(101, "calibrate-kmer")
    codes = rng.integers(0, 4, size=n_bases, dtype=np.int64).astype(np.uint8)
    read_len = 100
    n_reads = n_bases // read_len
    batch = ReadBatch(
        codes[: n_reads * read_len],
        np.arange(0, n_reads * read_len + 1, read_len, dtype=np.int64),
        np.arange(n_reads, dtype=np.int64),
    )
    dt = _best_of(lambda: enumerate_canonical_kmers(batch, k), repeats)
    n_kmers = n_reads * (read_len - k + 1)
    return n_kmers / dt if dt > 0 else float("inf")


def measure_sort_rate(n_tuples: int = 200_000, k: int = 27, repeats: int = 3) -> float:
    """Tuple radix passes per second (tuples x passes, best of ``repeats``)."""
    # the synthetic keys fill a single uint64 limb, so the calibration
    # only models one-limb k-mers
    check_in_range("k", k, 1, MAX_K_ONE_LIMB)
    rng = rng_for(102, "calibrate-sort")
    lo = rng.integers(0, 1 << (2 * k), size=n_tuples, dtype=np.uint64)
    ids = rng.integers(0, n_tuples, size=n_tuples, dtype=np.uint32)
    tuples = KmerTuples(KmerArray(k, lo), ids)
    dt = _best_of(lambda: radix_sort_tuples(tuples, skip_constant=False), repeats)
    return n_tuples * radix_passes_for(k) / dt if dt > 0 else float("inf")


def measure_uf_rate(n_vertices: int = 50_000, n_edges: int = 100_000, repeats: int = 3) -> float:
    """Union-find edges processed per second (best of ``repeats``)."""
    rng = rng_for(103, "calibrate-uf")
    us = rng.integers(0, n_vertices, size=n_edges)
    vs = rng.integers(0, n_vertices, size=n_edges)

    def run():
        DisjointSetForest(n_vertices).process_edges(us, vs)

    dt = _best_of(run, repeats)
    return n_edges / dt if dt > 0 else float("inf")


def measure_merge_rate(n_vertices: int = 200_000, repeats: int = 3) -> float:
    """Parent-array vertices absorbed per second (best of ``repeats``)."""
    rng = rng_for(104, "calibrate-merge")
    a = DisjointSetForest(n_vertices)
    b = DisjointSetForest(n_vertices)
    edges = rng.integers(0, n_vertices, size=(n_vertices // 4, 2))
    b.process_edges(edges[:, 0], edges[:, 1])
    sent = b.parent

    def run():
        a.copy().absorb_parent_array(sent)

    dt = _best_of(run, repeats)
    return n_vertices / dt if dt > 0 else float("inf")


def calibrate(quick: bool = True) -> SubstrateRates:
    """Measure all four rates; ``quick`` shrinks problem sizes ~4x."""
    scale = 4 if not quick else 1
    return SubstrateRates(
        kmer_rate=measure_kmer_rate(300_000 * scale),
        sort_rate=measure_sort_rate(200_000 * scale),
        uf_rate=measure_uf_rate(50_000 * scale, 100_000 * scale),
        merge_rate=measure_merge_rate(200_000 * scale),
    )

"""Shared benchmark fixtures: datasets, cached pipeline runs, projections.

Benchmarks run the real pipeline on the synthetic analogues (Table 2
scaling) and project paper-machine times from the measured work volumes
(see DESIGN.md section 6).  Heavy artifacts are session-cached so that
every table/figure module can reuse them.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep, PipelineResult
from repro.datasets.registry import build_dataset
from repro.index.create import index_create
from repro.runtime.machines import get_machine
from repro.runtime.timing import TimingModel

#: paper dataset sizes in Gbp (Table 2), used to scale projections
PAPER_GBP = {"HG": 2.29, "LL": 4.26, "MM": 11.07, "IS": 223.26}

#: analogue build scales (IS capped; see datasets.registry docstring)
BENCH_SCALE = {"HG": 1.0, "LL": 1.0, "MM": 1.0, "IS": 0.6}

BENCH_M = 6  # m-mer prefix length used across benchmarks


@pytest.fixture(scope="session")
def bench_root(tmp_path_factory):
    return tmp_path_factory.mktemp("benchdata")


class BenchContext:
    """Builds datasets/indexes once and caches pipeline runs by config."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._datasets = {}
        self._indexes = {}
        self._runs = {}

    def dataset(self, name: str):
        if name not in self._datasets:
            self._datasets[name] = build_dataset(
                name, self.root / name.lower(), seed=11, scale=BENCH_SCALE[name]
            )
        return self._datasets[name]

    def index(self, name: str, k: int = 27, n_chunks: int = 32, m: int = BENCH_M):
        key = (name, k, n_chunks, m)
        if key not in self._indexes:
            ds = self.dataset(name)
            self._indexes[key] = index_create(
                ds.units, k=k, m=m, n_chunks=n_chunks
            )
        return self._indexes[key]

    def run(
        self,
        name: str,
        n_tasks: int = 1,
        n_threads: int = 4,
        n_passes: int = 1,
        k: int = 27,
        n_chunks: int = 32,
        m: int = BENCH_M,
        **config_kw,
    ) -> PipelineResult:
        key = (
            name, n_tasks, n_threads, n_passes, k, n_chunks, m,
            tuple(sorted(config_kw.items())),
        )
        if key not in self._runs:
            ds = self.dataset(name)
            cfg = PipelineConfig(
                k=k,
                m=m,
                n_tasks=n_tasks,
                n_threads=n_threads,
                n_passes=n_passes,
                n_chunks=n_chunks,
                write_outputs=False,
                **config_kw,
            )
            self._runs[key] = MetaPrep(cfg).run(
                ds.units, index=self.index(name, k, n_chunks, m)
            )
        return self._runs[key]

    def scale_factor(self, result: PipelineResult) -> float:
        """Paper-bases / analogue-bases for the run's dataset."""
        for name, ds in self._datasets.items():
            if ds.n_pairs == result.n_reads:
                return PAPER_GBP[name] / (ds.total_bases / 1e9)
        return 1.0

    def scaled_work(self, result: PipelineResult):
        """The run's measured volumes, scaled to the paper's dataset size."""
        return result.work.scaled(self.scale_factor(result))

    def project(self, result: PipelineResult, machine: str = "edison"):
        """Project a run's measured volumes at the paper's dataset scale."""
        return TimingModel(get_machine(machine)).project(self.scaled_work(result))

    def memory_per_node(self, result: PipelineResult) -> int:
        """Section 3.7 memory model at the paper's dataset scale and mean
        pass ``M/(S P)``, as the projection charges it."""
        return self.scaled_work(result).mean_pass_memory().total


@pytest.fixture(scope="session")
def ctx(bench_root) -> BenchContext:
    return BenchContext(bench_root)

"""Memory-estimate plumbing between RunWork and the timing model."""

import numpy as np
import pytest

from repro.runtime.machines import EDISON
from repro.runtime.timing import TimingModel
from repro.runtime.work import RunWork, StepNames


def work_with_memory(P=4, T=8, S=1, tuples=10**9, reads=10**7):
    w = RunWork(n_tasks=P, n_threads=T, n_passes=S, n_reads=reads, k=27, tuple_bytes=12)
    w.kmergen_tuples += tuples // (P * T)
    w.kmergen_positions_scanned[:] = w.kmergen_tuples
    w.fastq_chunk_bytes = 10**8
    w.table_bytes = 10**7
    if P > 1:
        w.comm_stage_max_bytes = [[0] + [10**8] * (P - 1)]
    return w


class TestEstimatedMemory:
    """The projection's evaluation point: the model at the mean pass."""

    def test_components_add_up(self):
        w = work_with_memory()
        est = w.mean_pass_memory().total
        tuples_per_task_pass = int(np.ceil(w.kmergen_tuples.sum() / (w.n_passes * w.n_tasks)))
        expected = (
            w.table_bytes
            + w.n_threads * w.fastq_chunk_bytes
            + 2 * 12 * tuples_per_task_pass
            + 8 * w.n_reads
        )
        assert est == expected

    def test_more_passes_less_memory(self):
        assert (
            work_with_memory(S=8).mean_pass_memory().total
            < work_with_memory(S=1).mean_pass_memory().total
        )

    def test_k63_tuples_cost_more(self):
        w = work_with_memory()
        w20 = work_with_memory()
        w20.tuple_bytes = 20
        assert w20.mean_pass_memory().total > w.mean_pass_memory().total


class TestMemoryPressureComm:
    def _comm_seconds(self, tuples):
        model = TimingModel(EDISON)
        w = work_with_memory(tuples=tuples)
        return model.project(w).step_seconds(StepNames.KMERGEN_COMM)

    def test_pressure_slows_comm(self):
        # ~58 GB/task of tuple buffers: util ~0.9 -> heavy pressure
        heavy = self._comm_seconds(tuples=15 * 10**9)
        light = self._comm_seconds(tuples=10**8)
        # identical wire volume (stage maxes fixed); only pressure differs
        assert heavy > light

    def test_no_pressure_below_floor(self):
        model = TimingModel(EDISON)
        a = work_with_memory(tuples=10**6)
        b = work_with_memory(tuples=10**7)
        ta = model.project(a).step_seconds(StepNames.KMERGEN_COMM)
        tb = model.project(b).step_seconds(StepNames.KMERGEN_COMM)
        assert ta == pytest.approx(tb)

    def test_single_task_no_comm_regardless(self):
        model = TimingModel(EDISON)
        w = work_with_memory(P=1, tuples=15 * 10**9)
        assert model.project(w).step_seconds(StepNames.KMERGEN_COMM) == 0.0


class TestScaledMemoryFields:
    def test_chunk_scales_table_does_not(self):
        w = work_with_memory()
        s = w.scaled(10.0)
        assert s.fastq_chunk_bytes == 10 * w.fastq_chunk_bytes
        assert s.table_bytes == w.table_bytes

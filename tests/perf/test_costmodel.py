"""Paper section 3.7's worked example, asserted against the one memory
model (:func:`repro.runtime.work.task_memory`)."""

import math

import pytest

from repro.runtime.work import task_memory

GB = 10**9

#: The paper's worked example: IS dataset (223.26 Gbp, 1.13 B reads) with
#: 8 passes, 16 tasks, 24 threads, 1536 chunks of ~0.3 GB, m = 10, and
#: ~1.3 B tuples per task per pass.  Expected: merHist 4 MB, FASTQPart
#: ~6 GB, FASTQBuffer ~7 GB, kmerIn/Out ~14 GB each, p+p' ~8 GB  =>
#: ~49 GB total.
IOWA_M, IOWA_CHUNKS = 10, 1536
IOWA_EXAMPLE = dict(
    # one 4-byte-per-bin histogram for merHist plus one per chunk
    table_bytes=4 ** (IOWA_M + 1) * (IOWA_CHUNKS + 1),
    chunk_bytes=int(0.3 * 10**9),
    n_threads=24,
    n_reads=1_130_000_000,
    tuple_bytes=12,
    tuples_per_task_pass=int(1.3e9),
)


class TestIowaWorkedExample:
    """Paper section 3.7's 49 GB/task example, term by term."""

    def test_merhist_4mb(self):
        mem = task_memory(**IOWA_EXAMPLE)
        assert mem.tables // (IOWA_CHUNKS + 1) == 4 * 4**10  # 4 MB

    def test_fastqpart_about_6gb(self):
        mem = task_memory(**IOWA_EXAMPLE)
        merhist = mem.tables // (IOWA_CHUNKS + 1)
        assert mem.tables - merhist == pytest.approx(6.4 * GB, rel=0.05)

    def test_fastq_buffer_about_7gb(self):
        mem = task_memory(**IOWA_EXAMPLE)
        assert mem.fastq_buffer == pytest.approx(7.2 * GB, rel=0.05)

    def test_kmer_buffers_about_14gb_each(self):
        mem = task_memory(**IOWA_EXAMPLE)
        assert mem.kmer_out == pytest.approx(15.6 * GB, rel=0.1)
        assert mem.kmer_in == mem.kmer_out

    def test_component_arrays_about_8gb(self):
        mem = task_memory(**IOWA_EXAMPLE)
        assert mem.components == pytest.approx(9.0 * GB, rel=0.05)

    def test_total_about_49gb(self):
        mem = task_memory(**IOWA_EXAMPLE)
        # paper: "49 GB (6 + 7 + 2 x 14 + 8)" with generous rounding
        assert 45 * GB < mem.total < 56 * GB

    def test_breakdown_sums_to_total(self):
        mem = task_memory(**IOWA_EXAMPLE)
        assert sum(mem._asdict().values()) == mem.total


class TestScalingDirections:
    def _memory(self, n_passes=1, n_tasks=4, tuple_bytes=12):
        tuples = 10**9
        return task_memory(
            table_bytes=4 ** (8 + 1) * (128 + 1),
            chunk_bytes=10**8,
            n_threads=8,
            n_reads=10**7,
            tuple_bytes=tuple_bytes,
            tuples_per_task_pass=math.ceil(tuples / (n_passes * n_tasks)),
        )

    def test_more_passes_less_memory(self):
        assert self._memory(n_passes=8).total < self._memory(n_passes=1).total

    def test_more_tasks_less_memory(self):
        assert self._memory(n_tasks=16).total < self._memory(n_tasks=1).total

    def test_k63_tuples_cost_more(self):
        m12 = self._memory(tuple_bytes=12)
        m20 = self._memory(tuple_bytes=20)
        assert m20.kmer_out > m12.kmer_out

    def test_component_arrays_independent_of_passes(self):
        assert (
            self._memory(n_passes=1).components
            == self._memory(n_passes=8).components
        )

"""Differential test suite: the ``process`` engine must be bit-identical
to the ``serial`` reference engine — and with it the shm block plane to
the heap one, since each engine implies its plane — and the disk plane
to both.

For every grid point (P, T, n_passes, k in {21, 32, 33}, LocalCC-Opt on/off)
the engines run the same dataset through the same prebuilt index, and
the partition labels, the component summary, and *every* integer counter
in :class:`~repro.runtime.work.RunWork` are compared for exact equality.
Any scheduling leak — a reordered union, a dropped tuple, a miscounted
byte — shows up here as a hard mismatch, not a statistical drift.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.index.create import index_create
from repro.runtime.work import RunWork

M = 5
N_CHUNKS = 12


@pytest.fixture(scope="module")
def indexes(tiny_hg):
    """One prebuilt index per k (k=32 and k=33 take two limbs; at k=32
    the top limb holds no bits)."""
    return {
        k: index_create(tiny_hg.units, k=k, m=M, n_chunks=N_CHUNKS)
        for k in (21, 32, 33)
    }


GRID = [
    dict(k=21, n_tasks=1, n_threads=1, n_passes=1, localcc_opt=True),
    dict(k=21, n_tasks=2, n_threads=2, n_passes=1, localcc_opt=True),
    dict(k=21, n_tasks=2, n_threads=2, n_passes=2, localcc_opt=False),
    dict(k=21, n_tasks=3, n_threads=2, n_passes=2, localcc_opt=True),
    dict(k=21, n_tasks=4, n_threads=1, n_passes=3, localcc_opt=True),
    dict(k=32, n_tasks=2, n_threads=2, n_passes=2, localcc_opt=True),
    dict(k=33, n_tasks=2, n_threads=2, n_passes=1, localcc_opt=True),
    dict(k=33, n_tasks=2, n_threads=3, n_passes=2, localcc_opt=True),
    dict(k=33, n_tasks=3, n_threads=1, n_passes=2, localcc_opt=False),
]


@pytest.fixture(scope="module")
def run(tiny_hg, indexes):
    """``run(grid_point, executor, spill)`` — one pipeline run per
    distinct configuration; the legs of the differential compare the
    same (read-only) results pairwise."""
    results = {}

    def _run(grid_point, executor, spill="never"):
        key = (*sorted(grid_point.items()), executor, spill)
        if key not in results:
            cfg = PipelineConfig(
                m=M,
                write_outputs=False,
                executor=executor,
                max_workers=2,
                spill=spill,
                **grid_point,
            )
            results[key] = MetaPrep(cfg).run(
                tiny_hg.units, index=indexes[grid_point["k"]]
            )
        return results[key]

    return _run


def assert_runwork_identical(a: RunWork, b: RunWork) -> None:
    """Every field of RunWork must match exactly, by whatever equality its
    type defines (arrays elementwise, lists/ints structurally)."""
    for f in dataclasses.fields(RunWork):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb), f"RunWork.{f.name} differs"
        else:
            assert va == vb, f"RunWork.{f.name} differs: {va!r} != {vb!r}"


@pytest.mark.parametrize(
    "grid_point",
    GRID,
    ids=lambda g: (
        f"k{g['k']}-P{g['n_tasks']}-T{g['n_threads']}-S{g['n_passes']}-"
        f"opt{int(g['localcc_opt'])}"
    ),
)
class TestBitIdentity:
    def test_process_matches_serial(self, run, grid_point):
        serial = run(grid_point, "serial")
        process = run(grid_point, "process")

        # partition: labels, parent array, and the summary
        assert np.array_equal(
            serial.partition.labels, process.partition.labels
        )
        assert np.array_equal(
            serial.partition.parent, process.partition.parent
        )
        assert serial.partition.summary == process.partition.summary
        assert serial.partition.largest_label == process.partition.largest_label

        # every RunWork integer counter
        assert_runwork_identical(serial.work, process.work)

        # step-level stats ride along bit-identically too
        assert serial.sort_stats == process.sort_stats
        assert serial.cc_stats == process.cc_stats
        assert len(serial.comm_stats) == len(process.comm_stats)
        for sa, sb in zip(serial.comm_stats, process.comm_stats):
            assert np.array_equal(sa.bytes_matrix, sb.bytes_matrix)
            assert (
                sa.max_message_bytes_per_stage
                == sb.max_message_bytes_per_stage
            )

        # and the projection, which is a pure function of the volumes
        assert (
            serial.projected.total_seconds == process.projected.total_seconds
        )

    def test_shared_dataplane_matches_heap(self, run, grid_point):
        """Third leg of the differential: heap ≡ shm through the real
        derivation — the serial engine's plane is the heap pool, the
        process engine's the shared-memory pool, so any byte the shm
        path moves differently from plain ndarrays breaks bit-identity
        here."""
        heap = run(grid_point, "serial")
        shared = run(grid_point, "process")
        assert np.array_equal(heap.partition.labels, shared.partition.labels)
        assert np.array_equal(heap.partition.parent, shared.partition.parent)
        assert heap.partition.summary == shared.partition.summary
        assert_runwork_identical(heap.work, shared.work)
        assert heap.sort_stats == shared.sort_stats
        assert heap.cc_stats == shared.cc_stats

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_spill_always_matches_never(self, run, grid_point, executor):
        """Fourth leg of the differential: the out-of-core path forced
        on.  Tuples travel through spill files on disk instead of
        resident blocks — any byte the spill format or the lazy
        re-attachment moves differently breaks bit-identity here."""
        inmem = run(grid_point, executor, spill="never")
        spilled = run(grid_point, executor, spill="always")
        assert spilled.spilled_passes == list(range(grid_point["n_passes"]))
        assert np.array_equal(
            inmem.partition.labels, spilled.partition.labels
        )
        assert np.array_equal(
            inmem.partition.parent, spilled.partition.parent
        )
        assert inmem.partition.summary == spilled.partition.summary
        assert_runwork_identical(inmem.work, spilled.work)
        assert inmem.sort_stats == spilled.sort_stats
        assert inmem.cc_stats == spilled.cc_stats


class TestStaticChecksActiveInWorkers:
    def test_corrupt_index_still_detected_under_process_engine(self, tiny_hg):
        """The StaticCountMismatch defense must survive the executor
        boundary: counts are produced by workers, verified by the driver."""
        from repro.core.pipeline import StaticCountMismatch

        index = index_create(tiny_hg.units, k=21, m=M, n_chunks=8)
        index.fastqpart.hist[0, :] = index.fastqpart.hist[0, ::-1].copy()
        index.merhist.counts = index.fastqpart.global_histogram().astype(
            np.uint32
        )
        cfg = PipelineConfig(
            k=21, m=M, n_tasks=2, n_threads=2, write_outputs=False,
            executor="process", max_workers=2,
        )
        with pytest.raises(StaticCountMismatch):
            MetaPrep(cfg).run(tiny_hg.units, index=index)

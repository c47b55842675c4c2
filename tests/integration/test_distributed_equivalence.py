"""Differential test suite for the ``distributed`` engine.

The distributed engine replaces the in-process dataplane with worker
daemons and real TCP frames, so the differential contract gets two new
dimensions on top of bit-identity:

* **wire accounting** — ``net.bytes_sent`` must equal the *predicted*
  wire traffic of :func:`~repro.runtime.comm.block_exchange_stats`
  (``comm.wire_bytes``): the byte-accounting model and the actual
  network are the same numbers, not analogous ones;
* **crash hygiene** — a worker killed mid-stage surfaces
  :class:`~repro.runtime.executor.ExecutorError` on the driver and
  leaves no orphaned sockets, ``/dev/shm`` segments, or spill files
  (a dead worker's heap-backed block store dies with it).

Workers are in-process :class:`~repro.runtime.worker.WorkerDaemon`
instances over loopback (real frames, fast setup); the crash leg forks
a real subprocess so ``os._exit`` kills a worker and not the test.
"""

import collections
import dataclasses
import gc
import glob
import multiprocessing as mp
import os
import tempfile
import warnings

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.index.create import index_create
from repro.runtime.executor import ExecutorError
from repro.runtime.spill import SpillError
from repro.runtime.work import RunWork
from repro.runtime.worker import WorkerDaemon

M = 5
N_CHUNKS = 12

#: counters whose totals must be engine-equal (the work the algorithm
#: does cannot depend on where it runs)
SHARED_COUNTERS = (
    "kmergen.tuples_routed",
    "comm.bytes_moved",
    "comm.wire_bytes",
    "buffers.bytes_allocated",
    "sort.radix_passes",
    "sort.histogram_fills",
    "cc.unions",
    "cc.find_steps",
)

GRID = [
    dict(k=21, n_tasks=2, n_threads=2, n_passes=2, localcc_opt=True),
    dict(k=21, n_tasks=3, n_threads=2, n_passes=1, localcc_opt=False),
    dict(k=21, n_tasks=4, n_threads=1, n_passes=2, localcc_opt=True),
    dict(k=33, n_tasks=2, n_threads=2, n_passes=2, localcc_opt=True),
]


@pytest.fixture(scope="module")
def indexes(tiny_hg):
    return {
        k: index_create(tiny_hg.units, k=k, m=M, n_chunks=N_CHUNKS)
        for k in (21, 33)
    }


@pytest.fixture(scope="module")
def daemons():
    started = [WorkerDaemon(), WorkerDaemon()]
    for d in started:
        d.start()
    yield started
    for d in started:
        d.stop()


def _run(tiny_hg, indexes, grid_point, executor, workers=(), spill="never",
         telemetry=False):
    cfg = PipelineConfig(
        m=M,
        write_outputs=False,
        executor=executor,
        max_workers=2,
        worker_addresses=workers,
        spill=spill,
        telemetry=telemetry,
        **grid_point,
    )
    return MetaPrep(cfg).run(tiny_hg.units, index=indexes[grid_point["k"]])


def assert_runwork_identical(a: RunWork, b: RunWork) -> None:
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
class TestDistributedBitIdentity:
    def test_distributed_matches_serial(
        self, tiny_hg, indexes, daemons, grid_point
    ):
        addresses = tuple(d.address for d in daemons)
        serial = _run(tiny_hg, indexes, grid_point, "serial")
        dist = _run(tiny_hg, indexes, grid_point, "distributed", addresses)

        assert np.array_equal(serial.partition.labels, dist.partition.labels)
        assert np.array_equal(serial.partition.parent, dist.partition.parent)
        assert serial.partition.summary == dist.partition.summary
        assert_runwork_identical(serial.work, dist.work)
        assert serial.sort_stats == dist.sort_stats
        assert serial.cc_stats == dist.cc_stats
        for sa, sb in zip(serial.comm_stats, dist.comm_stats):
            assert np.array_equal(sa.bytes_matrix, sb.bytes_matrix)

    def test_spill_always_matches(
        self, tiny_hg, indexes, daemons, grid_point
    ):
        addresses = tuple(d.address for d in daemons)
        inmem = _run(tiny_hg, indexes, grid_point, "serial")
        spilled = _run(
            tiny_hg, indexes, grid_point, "distributed", addresses,
            spill="always",
        )
        assert spilled.spilled_passes == list(range(grid_point["n_passes"]))
        assert np.array_equal(
            inmem.partition.labels, spilled.partition.labels
        )
        assert_runwork_identical(inmem.work, spilled.work)


class TestWireAccounting:
    GRID_POINT = dict(
        k=21, n_tasks=3, n_threads=2, n_passes=2, localcc_opt=True
    )

    @pytest.fixture(scope="class")
    def telemetries(self, tiny_hg, indexes, daemons):
        addresses = tuple(d.address for d in daemons)
        serial = _run(
            tiny_hg, indexes, self.GRID_POINT, "serial", telemetry=True
        )
        dist = _run(
            tiny_hg, indexes, self.GRID_POINT, "distributed", addresses,
            telemetry=True,
        )
        return serial, dist

    def test_shared_counter_totals_engine_equal(self, telemetries):
        serial, dist = telemetries
        st = serial.telemetry.counter_totals()
        dt = dist.telemetry.counter_totals()
        for name in SHARED_COUNTERS:
            assert st.get(name) == dt.get(name), name

    def test_net_bytes_match_predicted_wire_bytes(self, telemetries):
        """The acceptance criterion: actual bytes on the wire equal the
        byte-accounting model's prediction.  Only off-diagonal tuples
        (sender != owner) cross the wire, which is exactly what
        ``comm.wire_bytes`` counts."""
        serial, dist = telemetries
        totals = dist.telemetry.counter_totals()
        predicted = sum(s.wire_bytes_total for s in dist.comm_stats)
        assert totals["net.bytes_sent"] == predicted
        assert totals["net.bytes_recv"] == predicted
        assert totals["net.bytes_sent"] == totals["comm.wire_bytes"]
        # the serial engine never touches the network
        assert "net.bytes_sent" not in serial.telemetry.counter_totals()

    def test_frames_and_connects_counted(self, telemetries):
        _, dist = telemetries
        totals = dist.telemetry.counter_totals()
        assert totals["net.frames"] > 0
        assert totals["worker.connects"] > 0

    def test_spans_attributed_to_worker_hosts(self, telemetries, daemons):
        serial, dist = telemetries
        assert serial.telemetry.hosts_seen() == []
        hosts = dist.telemetry.hosts_seen()
        assert set(hosts) == {d.address for d in daemons}


class TestEventsRideHome:
    """Every engine sends the same events home.  Serial jobs emit into
    the driver's sink, pool jobs return theirs with the result, daemon
    jobs send theirs ahead of the reply; all three fold to the same
    span multiset and counter totals — a wrapper or handler that folded
    a job's events twice would double both."""

    GRID_POINT = dict(
        k=21, n_tasks=3, n_threads=2, n_passes=2, localcc_opt=True
    )

    @pytest.fixture(scope="class")
    def records(self, tiny_hg, indexes, daemons):
        addresses = tuple(d.address for d in daemons)
        return {
            engine: _run(
                tiny_hg, indexes, self.GRID_POINT, engine, workers,
                telemetry=True,
            ).telemetry
            for engine, workers in (
                ("serial", ()),
                ("process", ()),
                ("distributed", addresses),
            )
        }

    def test_same_span_multiset(self, records):
        def multiset(run):
            return collections.Counter(
                (s.name, s.task, s.aux) for s in run.spans
            )

        serial = multiset(records["serial"])
        assert serial
        assert multiset(records["process"]) == serial
        assert multiset(records["distributed"]) == serial

    def test_same_counter_totals_off_the_network(self, records):
        def totals(run):
            return {
                name: total
                for name, total in run.counter_totals().items()
                if not name.startswith("net.") and name != "worker.connects"
            }

        serial = totals(records["serial"])
        assert serial
        assert totals(records["process"]) == serial
        assert totals(records["distributed"]) == serial


def _doomed_worker_main(q, exit_after):
    daemon = WorkerDaemon(_exit_after_jobs=exit_after)
    q.put(daemon.address)
    daemon.serve_forever()


@pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="requires fork start method",
)
class TestCrashInjection:
    GRID_POINT = dict(
        k=21, n_tasks=2, n_threads=2, n_passes=2, localcc_opt=True
    )

    def test_killed_worker_fails_loudly_without_residue(
        self, tiny_hg, indexes, daemons
    ):
        ctx = mp.get_context("fork")
        q = ctx.Queue()
        proc = ctx.Process(
            target=_doomed_worker_main, args=(q, 3), daemon=True
        )
        proc.start()
        doomed = q.get(timeout=10)
        addresses = (daemons[0].address, doomed)

        shm_before = set(glob.glob("/dev/shm/*"))
        fds_before = len(os.listdir("/proc/self/fd"))
        try:
            with pytest.raises(ExecutorError, match="died"):
                _run(
                    tiny_hg, indexes, self.GRID_POINT, "distributed",
                    addresses,
                )
        finally:
            proc.join(timeout=10)

        # no orphaned shm segments, spill files, or leaked driver fds
        assert set(glob.glob("/dev/shm/*")) - shm_before == set()
        assert glob.glob(
            os.path.join(tempfile.gettempdir(), "metaprep-spill-*")
        ) == []
        assert len(os.listdir("/proc/self/fd")) == fds_before

        # the surviving registry still produces a bit-identical run
        healthy = tuple(d.address for d in daemons)
        serial = _run(tiny_hg, indexes, self.GRID_POINT, "serial")
        rerun = _run(
            tiny_hg, indexes, self.GRID_POINT, "distributed", healthy
        )
        assert np.array_equal(
            serial.partition.labels, rerun.partition.labels
        )


class TestUnusableSpillDir:
    def test_engine_closed_when_the_disk_plane_cannot_open(
        self, tiny_hg, indexes, daemons, tmp_path
    ):
        """A run whose disk plane cannot be built must not leak the
        engine's per-worker job channels (the service retries jobs
        in-process, so every attempt would repeat the leak)."""
        not_a_dir = tmp_path / "spill"
        not_a_dir.write_text("a regular file")
        cfg = PipelineConfig(
            k=21, m=M, n_tasks=2, n_threads=2, n_passes=2,
            write_outputs=False, executor="distributed",
            worker_addresses=tuple(d.address for d in daemons),
            spill="always", spill_dir=str(not_a_dir),
        )
        gc.collect()  # earlier tests' garbage is not this run's leak
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(SpillError, match=str(not_a_dir)):
                MetaPrep(cfg).run(tiny_hg.units, index=indexes[21])
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert leaks == [], [str(w.message) for w in leaks]
        assert all(len(d.store) == 0 for d in daemons)

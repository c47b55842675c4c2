"""Unit tests for the pluggable execution backends.

The backends' two contracts — result order == submission order, and loud
failure instead of hangs — are what the pipeline's bit-identity guarantee
rests on; both are exercised here directly, below the pipeline.
"""

import multiprocessing as mp
import os

import pytest

from repro.runtime.executor import (
    ENGINES,
    EXECUTOR_NAMES,
    DistributedExecutor,
    ExecutorError,
    ProcessExecutor,
    SerialExecutor,
    create_engine,
    worker_shared,
)

HAS_FORK = "fork" in mp.get_all_start_methods()


# ---- module-level job functions (picklable for the process engine) ----
def _square(x):
    return x * x


def _raise_on_three(x):
    if x == 3:
        raise ValueError(f"injected job failure on {x}")
    return x


def _exit_on_two(x):
    if x == 2:
        os._exit(17)  # simulate a segfault/OOM-kill: no exception, no result
    return x


def _shared_plus(x):
    return worker_shared() + x


class TestFactory:
    def test_names(self):
        assert create_engine("serial").name == "serial"
        assert create_engine("process").name == "process"
        assert set(EXECUTOR_NAMES) == {"serial", "process", "distributed"}

    def test_registry_drives_names(self):
        # EXECUTOR_NAMES is derived from the registry dict, not a
        # parallel literal that could drift out of sync
        assert EXECUTOR_NAMES == tuple(ENGINES)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            create_engine("mpi")

    def test_unknown_name_lists_registered_engines(self):
        with pytest.raises(
            ValueError, match="distributed, process, serial"
        ):
            create_engine("mpi")

    def test_distributed_needs_workers(self):
        with pytest.raises(ValueError, match="at least one worker"):
            create_engine("distributed")
        with pytest.raises(ValueError, match="at least one worker"):
            DistributedExecutor(())

    def test_distributed_rejects_malformed_address(self):
        with pytest.raises(ValueError, match="host:port"):
            DistributedExecutor(("localhost",))

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            ProcessExecutor(max_workers=0)

    def test_default_worker_count(self):
        ex = ProcessExecutor()
        assert ex.max_workers >= 1


class TestSerialExecutor:
    def test_map_order_and_values(self):
        with SerialExecutor() as ex:
            assert ex.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_jobs(self):
        with SerialExecutor() as ex:
            assert ex.map(_square, []) == []

    def test_shared_state(self):
        ex = SerialExecutor()
        ex.set_shared(100)
        assert ex.map(_shared_plus, [1, 2]) == [101, 102]
        ex.close()
        assert worker_shared() is None

    def test_job_exception_propagates(self):
        with SerialExecutor() as ex:
            with pytest.raises(ValueError, match="injected job failure"):
                ex.map(_raise_on_three, [1, 2, 3, 4])


class TestProcessExecutor:
    def test_map_order_and_values(self):
        with ProcessExecutor(max_workers=2) as ex:
            assert ex.map(_square, list(range(10))) == [
                x * x for x in range(10)
            ]

    def test_empty_jobs_do_not_spawn(self):
        ex = ProcessExecutor(max_workers=2)
        assert ex.map(_square, []) == []
        assert ex._pool is None  # no pool was ever created
        ex.close()

    def test_pool_reused_across_maps(self):
        with ProcessExecutor(max_workers=2) as ex:
            ex.map(_square, [1])
            pool = ex._pool
            ex.map(_square, [2])
            assert ex._pool is pool

    def test_shared_state_reaches_workers(self):
        with ProcessExecutor(max_workers=2) as ex:
            ex.set_shared(100)
            assert ex.map(_shared_plus, [1, 2, 3]) == [101, 102, 103]

    def test_set_shared_recycles_pool(self):
        with ProcessExecutor(max_workers=2) as ex:
            ex.set_shared(10)
            assert ex.map(_shared_plus, [0]) == [10]
            ex.set_shared(20)
            assert ex.map(_shared_plus, [0]) == [20]

    def test_job_exception_propagates_as_itself(self):
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(ValueError, match="injected job failure"):
                ex.map(_raise_on_three, [1, 2, 3, 4])

    @pytest.mark.skipif(not HAS_FORK, reason="requires fork start method")
    def test_dead_worker_raises_not_hangs(self):
        with ProcessExecutor(max_workers=2) as ex:
            with pytest.raises(ExecutorError, match="worker died"):
                ex.map(_exit_on_two, [1, 2, 3])
        # the executor is reusable after the failure: a fresh pool spawns
        with ProcessExecutor(max_workers=2) as ex2:
            assert ex2.map(_square, [2]) == [4]

    def test_close_idempotent(self):
        ex = ProcessExecutor(max_workers=1)
        ex.map(_square, [1])
        ex.close()
        ex.close()


class TestDistributedExecutor:
    """Against in-process loopback daemons — the wire is real TCP, the
    workers just live in this interpreter for speed and cleanup."""

    @pytest.fixture()
    def daemons(self):
        from repro.runtime.worker import WorkerDaemon

        started = [WorkerDaemon(), WorkerDaemon()]
        for d in started:
            d.start()
        yield started
        for d in started:
            d.stop()

    def _engine(self, daemons):
        return DistributedExecutor(tuple(d.address for d in daemons))

    def test_map_order_and_values(self, daemons):
        with self._engine(daemons) as ex:
            assert ex.map(_square, list(range(10))) == [
                x * x for x in range(10)
            ]

    def test_empty_jobs(self, daemons):
        with self._engine(daemons) as ex:
            assert ex.map(_square, []) == []

    def test_shared_state_reaches_workers(self, daemons):
        with self._engine(daemons) as ex:
            ex.set_shared(100)
            assert ex.map(_shared_plus, [1, 2, 3]) == [101, 102, 103]

    def test_job_exception_propagates_as_itself(self, daemons):
        with self._engine(daemons) as ex:
            with pytest.raises(ValueError, match="injected job failure"):
                ex.map(_raise_on_three, [1, 2, 3, 4])

    def test_unreachable_worker_fails_at_set_shared(self):
        # a registry pointing at a port nobody listens on must fail
        # loudly when run state is installed, not hang in map()
        ex = DistributedExecutor(("127.0.0.1:9",), timeout=0.2, retries=1)
        with pytest.raises(ExecutorError, match="unreachable"):
            ex.set_shared(0)

    @pytest.mark.skipif(not HAS_FORK, reason="requires fork start method")
    def test_dead_worker_raises_not_hangs(self, daemons):
        import multiprocessing as _mp

        from repro.runtime.worker import WorkerDaemon

        def _doomed(q):
            d = WorkerDaemon(_exit_after_jobs=0)
            q.put(d.address)
            d.serve_forever()

        ctx = _mp.get_context("fork")
        q = ctx.Queue()
        proc = ctx.Process(target=_doomed, args=(q,), daemon=True)
        proc.start()
        doomed_address = q.get(timeout=10)
        try:
            ex = DistributedExecutor((daemons[0].address, doomed_address))
            with ex:
                with pytest.raises(ExecutorError, match="died"):
                    ex.map(_square, [1, 2, 3, 4])
        finally:
            proc.join(timeout=10)

    def test_close_idempotent(self, daemons):
        ex = self._engine(daemons)
        ex.map(_square, [1])
        ex.close()
        ex.close()


class TestAvailableCpuCount:
    def test_at_least_one(self):
        from repro.runtime.executor import available_cpu_count

        assert available_cpu_count() >= 1

    def test_prefers_affinity_mask(self, monkeypatch):
        import repro.runtime.executor as executor_mod
        from repro.runtime.executor import available_cpu_count

        monkeypatch.setattr(
            executor_mod.os, "sched_getaffinity", lambda pid: {0, 1, 5},
            raising=False,
        )
        assert available_cpu_count() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        import repro.runtime.executor as executor_mod
        from repro.runtime.executor import available_cpu_count

        monkeypatch.delattr(
            executor_mod.os, "sched_getaffinity", raising=False
        )
        monkeypatch.setattr(executor_mod.os, "cpu_count", lambda: 7)
        assert available_cpu_count() == 7

    def test_default_pool_size_uses_it(self, monkeypatch):
        import repro.runtime.executor as executor_mod

        monkeypatch.setattr(
            executor_mod, "available_cpu_count", lambda: 5
        )
        assert ProcessExecutor().max_workers == 5


class TestSharedStateThreadConfinement:
    """Concurrent in-process runs (the job service) must not clobber each
    other's shared context: worker_shared() is per-thread."""

    def test_threads_see_their_own_shared(self):
        import threading

        seen = {}
        barrier = threading.Barrier(2)

        def run(tag, value):
            ex = SerialExecutor()
            ex.set_shared(value)
            barrier.wait()  # both threads have installed their state
            seen[tag] = ex.map(_shared_plus, [0, 1])
            ex.close()

        threads = [
            threading.Thread(target=run, args=("a", 100)),
            threading.Thread(target=run, args=("b", 200)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {"a": [100, 101], "b": [200, 201]}

    def test_close_on_one_thread_leaves_others_alone(self):
        import threading

        ex = SerialExecutor()
        ex.set_shared(42)

        def other_thread_close():
            SerialExecutor().close()  # installs None on *that* thread only

        t = threading.Thread(target=other_thread_close)
        t.start()
        t.join()
        assert worker_shared() == 42
        ex.close()

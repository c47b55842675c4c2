"""Pluggable execution backends for the pipeline's parallel stages.

The paper's METAPREP runs P MPI tasks x T OpenMP threads.  The driver in
:mod:`repro.core.pipeline` decomposes the work exactly that way (chunk
assignment, k-mer ranges, message schedule) but historically executed
every unit of work in one Python process — the parallelism existed only
in the timing model.  This module supplies the missing real concurrency:

* :class:`SerialExecutor` — runs every job inline, in submission order.
  This is the reference engine; its behavior is byte-for-byte the
  pre-executor pipeline.
* :class:`ProcessExecutor` — runs jobs on a ``concurrent.futures``
  process pool, exchanging pickled numpy tuple buffers with the workers.
* :class:`DistributedExecutor` — drains jobs over framed TCP channels
  to ``metaprep worker`` daemons (one long-lived channel per worker,
  jobs in submission order per channel), while the block plane's
  ``socket`` transport moves the tuple traffic peer-to-peer.

Engines register in the :data:`ENGINES` dict; :func:`create_engine`
instantiates by name and reports the registered names on a miss.

**Determinism contract.**  ``map(fn, jobs)`` always returns results in
job-submission order, regardless of the order in which workers finish.
Backends never reorder, drop, or retry jobs.  Because the pipeline's
deterministic orders (threads in rank order, sources in rank order) are
encoded in the job list and the result-merging loop — not in scheduling —
every engine produces bit-identical partitions, work counters, and
static-count checks.  ``tests/integration/test_executor_equivalence.py``
enforces this.

**Telemetry contract.**  Jobs' events ride home with their results.
The serial engine runs jobs on the calling thread, so they emit
straight into its sink; the pool engines return each job's captured
events beside its result, and ``map`` folds them into the calling
thread's sink after the last job is back, in submission order.

**Failure contract.**  A job that raises propagates its exception to the
caller.  A worker process that dies abruptly (segfault, ``os._exit``,
OOM-kill) raises :class:`ExecutorError` — never a hang — courtesy of
``concurrent.futures``'s broken-pool detection.

Workers receive per-run shared state (index tables, config constants)
via :func:`worker_shared`, installed once per pool by an initializer
rather than pickled into every job.
"""

from __future__ import annotations

import os
import pickle
import threading
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro import telemetry
from repro.util.logging import get_logger

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

_LOG = get_logger("runtime.executor")

T = TypeVar("T")
R = TypeVar("R")


def available_cpu_count() -> int:
    """CPUs actually available to this process, not merely present.

    ``os.cpu_count()`` reports the machine's cores, which oversubscribes
    the pool inside cgroup/affinity-limited environments (containers,
    ``taskset``, batch schedulers).  Prefer the scheduling affinity mask
    where the platform exposes it.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return len(getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1


class ExecutorError(RuntimeError):
    """A backend could not complete submitted work.

    Raised when a worker process dies without reporting a result (the
    pool is then unusable and is torn down).  Ordinary exceptions raised
    *by* a job are re-raised as themselves, not wrapped.
    """


# ----------------------------------------------------------------------
# per-worker shared state
#
# Thread-local rather than a plain module global: the serial engine runs
# jobs inline on the *calling* thread, and the job service runs several
# pipelines concurrently on different threads of one process — a plain
# global would let those runs clobber each other's context.  Pool workers
# are unaffected (the initializer and every job run on the worker
# process's main thread), so the fork/pickle path sees the same
# semantics it always did.
# ----------------------------------------------------------------------
_WORKER_SHARED = threading.local()


def _install_shared(shared) -> None:
    """Pool initializer: stash the run's shared state for this thread."""
    _WORKER_SHARED.value = shared


def worker_shared():
    """The shared object installed by :meth:`ExecutionBackend.set_shared`.

    Valid inside job functions (both engines install it before any job
    runs).  Returns ``None`` when no run is active on this thread.
    """
    return getattr(_WORKER_SHARED, "value", None)


def _pool_job(fn: Callable[[T], R], collect: bool, job: T) -> Tuple[R, list]:
    """A process-pool job: ``fn(job)`` and the events it emitted, which
    ride home with the result when the run collects."""
    if not collect:
        return fn(job), []
    with telemetry.capture() as events:
        result = fn(job)
    return result, events


class ExecutionBackend:
    """Interface shared by all engines."""

    name: str = "abstract"

    def set_shared(self, shared) -> None:
        """Install per-run shared state, visible to jobs via
        :func:`worker_shared`.  Must be called before :meth:`map` when the
        job functions rely on shared state; replacing the state of a live
        process pool recycles its workers."""
        raise NotImplementedError

    def map(self, fn: Callable[[T], R], jobs: Sequence[T]) -> List[R]:
        """Run ``fn`` over ``jobs``; results in submission order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources.  Idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(ExecutionBackend):
    """Inline execution in the calling process (the reference engine)."""

    name = "serial"
    max_workers = 1

    def set_shared(self, shared) -> None:
        _install_shared(shared)

    def map(self, fn: Callable[[T], R], jobs: Sequence[T]) -> List[R]:
        return [fn(job) for job in jobs]

    def close(self) -> None:
        _install_shared(None)


class ProcessExecutor(ExecutionBackend):
    """Real multiprocess execution on a ``ProcessPoolExecutor``.

    The pool is created lazily on first :meth:`map` (so shared state set
    beforehand is visible to the workers from birth) and reused across
    calls — one pool serves every pass of a pipeline run.  The ``fork``
    start method is preferred when the platform offers it: workers then
    inherit the parent's module state directly and per-job pickling is
    limited to the job payloads and results.  ``multiprocessing`` and
    ``concurrent.futures`` are imported only where the pool is built, so
    the other engines never load them.
    """

    name = "process"

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or available_cpu_count()
        self._shared = None
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            import multiprocessing as mp
            from concurrent.futures import ProcessPoolExecutor

            fork = "fork" in mp.get_all_start_methods()
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=mp.get_context("fork" if fork else None),
                initializer=_install_shared,
                initargs=(self._shared,),
            )
        return self._pool

    # ------------------------------------------------------------------
    def set_shared(self, shared) -> None:
        self._shared = shared
        if self._pool is not None:
            # workers were initialized with the old state: recycle them
            self._pool.shutdown(wait=True)
            self._pool = None

    def map(self, fn: Callable[[T], R], jobs: Sequence[T]) -> List[R]:
        jobs = list(jobs)
        if not jobs:
            return []
        pool = self._ensure_pool()
        from concurrent.futures import BrokenExecutor

        try:
            # chunksize=1 keeps scheduling granular (jobs are coarse
            # units — whole FASTQ chunks or whole owner tasks); map
            # yields results in submission order by construction.
            returned = list(
                pool.map(
                    partial(_pool_job, fn, telemetry.enabled()),
                    jobs,
                    chunksize=1,
                )
            )
        except BrokenExecutor as exc:
            self.close()
            raise ExecutorError(
                f"a '{self.name}' executor worker died while running "
                f"{getattr(fn, '__name__', fn)!r} (abrupt exit, signal, or "
                "out-of-memory kill); partial results were discarded"
            ) from exc
        results = []
        for result, events in returned:
            telemetry.fold(events)
            results.append(result)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class DistributedExecutor(ExecutionBackend):
    """Multi-host execution against ``metaprep worker`` daemons.

    The driver keeps one long-lived framed channel per worker.  Jobs are
    routed by their ``task`` rank (``task % n_workers`` — the same
    placement rule the socket block plane uses for owner blocks, so an
    owner job always runs on the worker hosting its block) and drained
    strictly in submission order per channel; results land back in
    submission order overall, preserving the determinism contract.

    Shared state is broadcast eagerly by :meth:`set_shared` — workers
    must hold the run context (and its telemetry flag) before any
    block allocation or job executes, mirroring the pool initializer.
    A job's events come back ahead of its result; ``map`` stamps their
    spans with the worker's address.

    Failure contract: a job exception comes back pickled and is
    re-raised as itself; a dead or unreachable worker raises
    :class:`ExecutorError` after the surviving channels are closed.
    """

    name = "distributed"

    def __init__(
        self,
        worker_addresses: Sequence[str],
        timeout: float | None = None,
        retries: int | None = None,
    ) -> None:
        from repro.runtime import transport as tp

        addresses = tuple(worker_addresses or ())
        if not addresses:
            raise ValueError(
                "the distributed engine needs at least one worker "
                "address (host:port); start daemons with `metaprep "
                "worker` and pass them via --worker"
            )
        for address in addresses:
            tp.parse_address(address)
        self._tp = tp
        self.worker_addresses = addresses
        self.max_workers = len(addresses)
        self.timeout = tp.CONNECT_TIMEOUT if timeout is None else timeout
        self.retries = tp.CONNECT_RETRIES if retries is None else retries
        self._channels: Dict[str, object] = {}
        self._shared = None

    # ------------------------------------------------------------------
    def _channel(self, address: str):
        sock = self._channels.get(address)
        if sock is None:
            sock = self._tp.connect_with_retry(
                address, timeout=self.timeout, retries=self.retries
            )
            self._channels[address] = sock
        return sock

    def _drop_channel(self, address: str) -> None:
        sock = self._channels.pop(address, None)
        if sock is not None:
            sock.close()

    def _roundtrip(
        self, address: str, kind: int, payload: bytes
    ) -> Tuple[bytes, list]:
        """One request/response on the worker's persistent channel:
        the OK payload and the events the worker sent home with it."""
        sock = self._channel(address)
        self._tp.send_frame(sock, kind, payload)
        return self._tp.recv_reply(sock)

    # ------------------------------------------------------------------
    def set_shared(self, shared) -> None:
        self._shared = shared
        payload = pickle.dumps(shared)
        for address in self.worker_addresses:
            try:
                self._roundtrip(address, self._tp.FRAME_SET_SHARED, payload)
            except (self._tp.TransportError, OSError) as exc:
                self.close()
                raise ExecutorError(
                    f"worker {address} is unreachable while installing "
                    "run state; is `metaprep worker` running there?"
                ) from exc

    def map(self, fn: Callable[[T], R], jobs: Sequence[T]) -> List[R]:
        jobs = list(jobs)
        if not jobs:
            return []
        addresses = self.worker_addresses
        queues: Dict[str, List[Tuple[int, T]]] = {a: [] for a in addresses}
        for i, job in enumerate(jobs):
            rank = int(getattr(job, "task", i))
            queues[addresses[rank % len(addresses)]].append((i, job))

        results: List[Optional[R]] = [None] * len(jobs)
        # drain threads have no sink of the caller's: each job's events
        # wait in `job_events`, each channel's own JOB frames in `sent`,
        # and both are folded on this thread after the join
        job_events: List[Tuple[str, list]] = [("", [])] * len(jobs)
        collect = telemetry.enabled()
        sent: Dict[str, list] = {a: [] for a in addresses}
        job_errors: Dict[int, BaseException] = {}
        dead: Dict[str, OSError | RuntimeError] = {}
        abort = threading.Event()

        def drain(address: str) -> None:
            if collect:
                telemetry.activate(sent[address])
            for i, job in queues[address]:
                if abort.is_set():
                    return
                try:
                    payload, events = self._roundtrip(
                        address, self._tp.FRAME_JOB, pickle.dumps((fn, job))
                    )
                except (self._tp.TransportError, OSError) as exc:
                    dead[address] = exc
                    abort.set()
                    self._drop_channel(address)
                    return
                except BaseException as exc:  # noqa: BLE001 - job's own error
                    job_errors[i] = exc
                    abort.set()
                    return
                results[i] = pickle.loads(payload)
                job_events[i] = (address, events)

        threads = [
            threading.Thread(target=drain, args=(a,))
            for a in addresses
            if queues[a]
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        if job_errors and not dead:
            raise job_errors[min(job_errors)]
        if dead:
            self.close()
            address, exc = next(iter(dead.items()))
            raise ExecutorError(
                f"a '{self.name}' executor worker ({address}) died while "
                f"running {getattr(fn, '__name__', fn)!r} (abrupt exit, "
                "signal, or network failure); partial results were "
                "discarded"
            ) from exc
        for address in addresses:
            telemetry.fold(sent[address])
        for address, events in job_events:
            telemetry.fold(events, host=address)
        return results  # type: ignore[return-value]

    def close(self) -> None:
        for address in list(self._channels):
            self._drop_channel(address)


# ----------------------------------------------------------------------
# engine registry
# ----------------------------------------------------------------------
def _make_serial(max_workers=None, workers=None) -> ExecutionBackend:
    return SerialExecutor()


def _make_process(max_workers=None, workers=None) -> ExecutionBackend:
    return ProcessExecutor(max_workers=max_workers)


def _make_distributed(max_workers=None, workers=None) -> ExecutionBackend:
    return DistributedExecutor(workers or ())


#: name -> factory(max_workers=..., workers=...); new engines plug in
#: here and become visible to config validation, the CLI choices, and
#: :func:`create_engine` alike
ENGINES: Dict[str, Callable[..., ExecutionBackend]] = {
    "serial": _make_serial,
    "process": _make_process,
    "distributed": _make_distributed,
}

#: recognized backend names, in registration order
EXECUTOR_NAMES = tuple(ENGINES)


def create_engine(
    name: str = "serial",
    max_workers: int | None = None,
    workers: Sequence[str] | None = None,
) -> ExecutionBackend:
    """Instantiate an engine from the :data:`ENGINES` registry.

    ``workers`` is the distributed engine's host:port registry; the
    in-host engines ignore it.  An unknown name reports what *is*
    registered instead of a bare ``KeyError``.
    """
    try:
        factory = ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; registered engines: "
            f"{', '.join(sorted(ENGINES))}"
        ) from None
    return factory(max_workers=max_workers, workers=workers)

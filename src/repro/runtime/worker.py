"""``metaprep worker`` — the distributed engine's per-host daemon.

One daemon per (host, port) registry entry.  It does two jobs over the
framed protocol of :mod:`repro.runtime.transport`:

* **execute jobs** — the driver keeps one long-lived channel per worker
  and drains JOB frames on it; the daemon unpickles ``(fn, payload)``,
  installs the run's shared worker context
  (:func:`~repro.runtime.executor._install_shared`) and calls the
  *unchanged* job function — the same module-level functions the serial
  and process engines run, which is what keeps the three engines
  bit-identical by construction;
* **host exchange blocks** — ALLOC/WRITE_REGION/GET_IDS/PUT_IDS/FREE
  frames against a :class:`~repro.runtime.transport.BlockStore`.  A
  KmerGen job running on worker A writes its per-owner tuple regions
  straight to the owning workers' stores (peer-to-peer, following the
  pipeline's precomputed offsets), so ``block_exchange_stats``'s byte
  accounting becomes actual wire traffic.

Each connection is served by its own thread (``ThreadingTCPServer``),
so a worker can execute a job while peers stream WRITE_REGION frames
into its store — the write targets are disjoint ``[offset, offset+n)``
regions by construction of the offset tables, making concurrent writes
safe without locks.

Telemetry rides the replies.  SET_SHARED tells the daemon whether the
run collects (``_WorkerContext.telemetry``); while it does, every
request is served under :func:`repro.telemetry.capture` and whatever it
emitted — a job's spans and counters, an ALLOC's ``buffers.*``, a
peer's ``net.bytes_recv`` — goes back as one EVENTS frame ahead of the
OK frame.  The daemon writes nothing outside its own process.

Failure semantics: a killed worker takes its heap-backed block store
with it — nothing to orphan (no ``/dev/shm`` names, no sockets beyond
the kernel-reaped fds, no spill files of its own).  The driver surfaces
the dead channel as :class:`~repro.runtime.executor.ExecutorError`, and
the pipeline's ``finally`` sweeps driver-owned spill state exactly as
for a dead process-pool worker.
"""

from __future__ import annotations

import os
import pickle
import socketserver
import threading
from contextlib import nullcontext
from typing import Optional

import numpy as np

from repro import telemetry
from repro.runtime import transport as tp
from repro.runtime.executor import _install_shared
from repro.util.logging import get_logger

_LOG = get_logger("runtime.worker")


class _WorkerServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, handler, daemon: "WorkerDaemon") -> None:
        super().__init__(address, handler)
        self.worker = daemon


class _Handler(socketserver.BaseRequestHandler):
    """One connection: loop frames until the peer hangs up."""

    def handle(self) -> None:
        daemon: WorkerDaemon = self.server.worker
        try:
            while True:
                try:
                    kind, payload = tp.recv_frame(self.request)
                except tp.TransportClosed:
                    return
                scope = (
                    telemetry.capture() if daemon.collecting else nullcontext([])
                )
                try:
                    with scope as events:
                        reply = daemon.dispatch(kind, payload)
                except Exception as exc:  # noqa: BLE001 - shipped to driver
                    tp.send_frame(
                        self.request, tp.FRAME_ERR, pickle.dumps(exc)
                    )
                    continue
                if events:
                    tp.send_frame(
                        self.request, tp.FRAME_EVENTS, pickle.dumps(events)
                    )
                tp.send_frame(self.request, tp.FRAME_OK, reply)
        except (tp.TransportError, OSError) as exc:
            _LOG.debug("connection dropped: %s", exc)


class WorkerDaemon:
    """A running worker: TCP server + block store + shared context."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        advertise: Optional[str] = None,
        _exit_after_jobs: Optional[int] = None,
    ) -> None:
        self._server = _WorkerServer((host, port), _Handler, self)
        bound_port = self._server.server_address[1]
        #: the address peers reach this worker at — also the host the
        #: driver stamps on the spans of the jobs this worker ran
        self.address = advertise or f"{host}:{bound_port}"
        self.store = tp.BlockStore()
        self.shared = None
        #: whether the current run collects telemetry (set by SET_SHARED)
        self.collecting = False
        self._jobs_done = 0
        self._jobs_lock = threading.Lock()
        #: crash injection for the differential harness: hard-exit the
        #: process (as ``kill -9`` would) before running job N+1
        self._exit_after_jobs = _exit_after_jobs
        tp.register_local_store(self.address, self.store)
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Serve in a background thread (tests / embedded use)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI verb)."""
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        tp.unregister_local_store(self.address)
        self.store.sweep()

    # ------------------------------------------------------------------
    def dispatch(self, kind: int, payload: bytes) -> bytes:
        if kind == tp.FRAME_HELLO:
            return pickle.dumps(self.address)
        if kind == tp.FRAME_SET_SHARED:
            return self._on_set_shared(payload)
        if kind == tp.FRAME_JOB:
            return self._on_job(payload)
        if kind == tp.FRAME_ALLOC:
            return self._on_alloc(payload)
        if kind == tp.FRAME_WRITE_REGION:
            return self._on_write_region(payload)
        if kind == tp.FRAME_GET_BLOCK:
            return self._on_get_block(payload)
        if kind == tp.FRAME_GET_IDS:
            return self._on_get_ids(payload)
        if kind == tp.FRAME_PUT_IDS:
            return self._on_put_ids(payload)
        if kind == tp.FRAME_FREE:
            self.store.free(pickle.loads(payload))
            return b""
        if kind == tp.FRAME_SWEEP:
            swept = self.store.sweep()
            if swept:
                _LOG.debug("sweep freed %d blocks", swept)
            return pickle.dumps(swept)
        if kind == tp.FRAME_SHUTDOWN:
            threading.Thread(target=self._server.shutdown).start()
            return b""
        raise tp.TransportCorruption(f"unknown frame kind {kind}")

    # ------------------------------------------------------------------
    def _on_set_shared(self, payload: bytes) -> bytes:
        self.shared = pickle.loads(payload)
        self.collecting = bool(getattr(self.shared, "telemetry", False))
        return b""

    def _on_job(self, payload: bytes) -> bytes:
        if self._exit_after_jobs is not None:
            with self._jobs_lock:
                self._jobs_done += 1
                if self._jobs_done > self._exit_after_jobs:
                    # simulate a worker killed mid-stage: no cleanup, no
                    # goodbye frame — the driver sees a dead channel
                    os._exit(1)
        fn, job = pickle.loads(payload)
        _install_shared(self.shared)
        return pickle.dumps(fn(job))

    def _on_alloc(self, payload: bytes) -> bytes:
        k, capacity, owner = pickle.loads(payload)
        # the store's pool emits buffers.* occupancy telemetry, same
        # names and totals as the in-host planes
        block_id = self.store.allocate(k, capacity)
        ref = tp.SocketBlockRef(
            address=self.address,
            block_id=block_id,
            k=k,
            capacity=capacity,
            owner=owner,
        )
        return pickle.dumps(ref)

    def _on_write_region(self, payload: bytes) -> bytes:
        block_id, at, sender, owner, n, columns = pickle.loads(payload)
        if sender != owner and telemetry.enabled():
            telemetry.add_counter(
                "net.bytes_recv",
                sum(map(len, columns)),
                task=owner,
                aux=sender,
            )
        block = self.store.get(block_id)
        block.write(at, tp.tuples_from_columns(block.k, n, columns))
        return b""

    def _on_get_block(self, payload: bytes) -> bytes:
        block = self.store.get(pickle.loads(payload))
        columns = tp.column_bytes(block.view())
        return pickle.dumps((block.k, block.capacity, columns))

    def _on_get_ids(self, payload: bytes) -> bytes:
        block_id, lo, hi = pickle.loads(payload)
        return self.store.get(block_id).view(lo, hi).read_ids.tobytes()

    def _on_put_ids(self, payload: bytes) -> bytes:
        block_id, lo, hi, raw = pickle.loads(payload)
        view = self.store.get(block_id).view(lo, hi)
        view.read_ids[:] = np.frombuffer(raw, dtype=np.uint32, count=hi - lo)
        return b""


def serve_worker(
    host: str = "127.0.0.1",
    port: int = 0,
    advertise: Optional[str] = None,
) -> None:
    """Run a worker daemon until interrupted (the CLI entry point)."""
    daemon = WorkerDaemon(host=host, port=port, advertise=advertise)
    _LOG.info("metaprep worker listening on %s", daemon.address)
    print(f"metaprep worker listening on {daemon.address}", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        daemon.stop()

"""The block plane: every stage boundary behind one API.

The paper's exchange is one idea — the index tables fix every chunk's
write offset in every owner's buffer, so the write *is* the all-to-all
(§3.2.2/3.3) — and §3.7 only changes where a pass's tuples live.  Every
stage hop (KmerGen writing per-owner exchange blocks, the driver's
LocalCC-Opt id rewrite, LocalSort/LocalCC consuming the blocks)
therefore goes through one :class:`BlockTransport` lifecycle::

    publish -> region writes at static offsets -> map_ids -> seal
            -> one resolve_block per owner -> release / close

with four implementations that differ only in where the bytes live:

* ``heap`` — plain in-process ndarrays (what the serial engine implies);
* ``shm`` — pooled ``/dev/shm`` segments over
  :class:`SharedMemoryBufferPool` (the process engine);
* ``socket`` — blocks hosted in remote ``metaprep worker`` daemons and
  addressed by :class:`SocketBlockRef`, with tuple regions shipped over
  length-prefixed TCP frames (the distributed engine);
* ``disk`` — one spill file per block, addressed by
  :class:`~repro.runtime.spill.SpillTarget` (any engine, for the passes
  the §3.7 spill schedule sends out-of-core).

The in-memory plane is derived from the engine
(:func:`create_block_transport`), never configured.  Jobs see only
handles: :func:`write_block_region` and :func:`resolve_block` dispatch
on the handle type, so the same job functions run over every plane.

Frame format
------------
Every message is one frame: a fixed 20-byte header followed by the
payload::

    <4sHHIII = magic "MPNT"  version:u16  kind:u16  length:u32
               payload_crc32:u32  header_crc32:u32

``header_crc32`` covers the first 16 header bytes, ``payload_crc32``
the payload, so a torn or corrupted frame is detected before any byte
of it is interpreted — :class:`TransportCorruption` is raised, never a
mis-parse.  A clean EOF *between* frames raises :class:`TransportClosed`
(the peer hung up); an EOF *inside* a frame is corruption.

Wire-byte accounting
--------------------
The all-to-all contract: tuples from sender task ``p`` to owner task
``d`` cross the wire iff ``p != d`` (the diagonal is a local write into
the worker's own store).  ``net.bytes_sent`` / ``net.bytes_recv`` count
exactly the tuple-column payload bytes of those off-diagonal
WRITE_REGION frames — framing and pickle overhead excluded — so their
totals equal ``wire_bytes_total`` of
:func:`repro.runtime.comm.block_exchange_stats`, byte for byte.
``net.frames`` counts the request frames the run's driver and jobs
send — a worker's replies, EVENTS frames included, are sent after its
capture closes and are not counted — and ``worker.connects`` every
connection the driver and jobs establish.

Telemetry rides the replies: a worker serving a request for a run that
collects sends the events it captured as one EVENTS frame ahead of its
OK frame, and :func:`recv_reply` — the one reader of OK/ERR/EVENTS —
hands them back to the requester.

Lifecycle
---------
Connections are short-lived and context-managed (one request per
connection for block operations; the distributed engine keeps one
long-lived job channel per worker, closed in its ``close()``).  The
``ResourceWarning`` and residue tests of
``tests/integration/test_distributed_equivalence.py`` catch a socket
left open on a failure path.
"""

from __future__ import annotations

import pickle
import struct
import threading
import time
import weakref
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.kmers.codec import ID_DTYPE, tuple_columns
from repro.kmers.engine import KmerTuples
from repro.runtime.buffers import (
    BlockHandle,
    BufferPool,
    HeapBufferPool,
    SharedMemoryBufferPool,
    TupleBlock,
    open_block,
)
from repro.runtime.spill import (
    SPILL_SUFFIX,
    SpillTarget,
    consume_spill,
    create_spill_dir,
    create_spill_file,
    map_spill_ids,
    resident_spill,
    seal_spill,
    sweep_spill_dir,
    write_spill_region,
)
from repro.util.logging import get_logger

if TYPE_CHECKING:  # annotations only; connect_with_retry imports it to dial
    import socket

_LOG = get_logger("runtime.transport")

#: recognized block-plane names, in documentation order
TRANSPORT_NAMES = ("heap", "shm", "socket", "disk")

MAGIC = b"MPNT"
VERSION = 1

#: magic, version, kind, payload length, payload crc32, header crc32
FRAME_HEADER = struct.Struct("<4sHHIII")

# request frame kinds
FRAME_HELLO = 1
FRAME_SET_SHARED = 2
FRAME_JOB = 3
FRAME_ALLOC = 4
FRAME_WRITE_REGION = 5
FRAME_GET_BLOCK = 6
FRAME_GET_IDS = 7
FRAME_PUT_IDS = 8
FRAME_FREE = 9
FRAME_SWEEP = 10
FRAME_SHUTDOWN = 11
# response frame kinds
FRAME_OK = 64
FRAME_ERR = 65
#: the events a worker captured while serving the request, sent ahead
#: of its OK frame when the run collects telemetry
FRAME_EVENTS = 66

#: default connect behavior (retries cover worker daemons still binding)
CONNECT_TIMEOUT = 10.0
CONNECT_RETRIES = 20
CONNECT_DELAY = 0.05


class TransportError(RuntimeError):
    """Base class for block-transport failures."""


class TransportCorruption(TransportError):
    """A frame arrived torn or inconsistent (bad magic, checksum
    mismatch, EOF inside a frame).  Readers never interpret a partial
    or corrupted frame — they see this."""


class TransportClosed(TransportError):
    """The peer closed the connection cleanly at a frame boundary."""


def parse_address(address: str) -> Tuple[str, int]:
    """Split ``"host:port"``; raises ``ValueError`` on malformed input."""
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"worker address {address!r} is not of the form host:port"
        )
    return host, int(port)


# ----------------------------------------------------------------------
# framed wire protocol
# ----------------------------------------------------------------------
def send_frame(sock: socket.socket, kind: int, payload: bytes = b"") -> None:
    """Send one checksummed length-prefixed frame."""
    head = FRAME_HEADER.pack(
        MAGIC, VERSION, kind, len(payload), zlib.crc32(payload), 0
    )
    head = head[:-4] + struct.pack("<I", zlib.crc32(head[:-4]))
    sock.sendall(head + payload)
    if telemetry.enabled():
        telemetry.add_counter("net.frames")


def _recv_exact(sock: socket.socket, n: int, at_boundary: bool = False) -> bytes:
    chunks: List[bytes] = []
    got = 0
    while got < n:
        chunk = sock.recv(min(n - got, 1 << 20))
        if not chunk:
            if got == 0 and at_boundary:
                raise TransportClosed("peer closed the connection")
            raise TransportCorruption(
                f"torn frame: EOF after {got} of {n} expected bytes"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Tuple[int, bytes]:
    """Receive one frame; returns ``(kind, payload)``.

    Raises :class:`TransportClosed` on clean EOF at a frame boundary and
    :class:`TransportCorruption` on a torn or checksum-failing frame.
    """
    head = _recv_exact(sock, FRAME_HEADER.size, at_boundary=True)
    magic, version, kind, length, payload_crc, header_crc = (
        FRAME_HEADER.unpack(head)
    )
    if zlib.crc32(head[:-4]) != header_crc:
        raise TransportCorruption("frame header checksum mismatch")
    if magic != MAGIC:
        raise TransportCorruption(f"bad frame magic {magic!r}")
    if version != VERSION:
        raise TransportCorruption(
            f"frame version {version}, expected {VERSION}"
        )
    payload = _recv_exact(sock, length)
    if zlib.crc32(payload) != payload_crc:
        raise TransportCorruption("frame payload checksum mismatch")
    return kind, payload


def connect_with_retry(
    address: str,
    timeout: float = CONNECT_TIMEOUT,
    retries: int = CONNECT_RETRIES,
    delay: float = CONNECT_DELAY,
) -> socket.socket:
    """Connect to ``"host:port"`` with bounded retry on refusal/timeout.

    A worker daemon may still be binding when the driver first dials it;
    each refused or timed-out attempt backs off ``delay`` seconds, up to
    ``retries`` attempts total.  The returned socket must be closed by
    the caller (context-manage it).
    """
    import socket

    host, port = parse_address(address)
    last: Exception | None = None
    for attempt in range(max(1, retries)):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except (ConnectionError, socket.timeout, OSError) as exc:
            last = exc
            time.sleep(delay)
            continue
        sock.settimeout(timeout)
        if telemetry.enabled():
            telemetry.add_counter("worker.connects")
        return sock
    raise TransportError(
        f"could not connect to worker {address} after {retries} attempts"
    ) from last


def recv_reply(sock: socket.socket) -> Tuple[bytes, list]:
    """Read a worker's reply: ``(OK payload, events)``.

    ``events`` are the telemetry events the worker sent home in an
    EVENTS frame ahead of its OK frame (empty when it sent none).  An
    ERR reply re-raises the pickled exception the worker sent back.
    """
    events: list = []
    rkind, rpayload = recv_frame(sock)
    if rkind == FRAME_EVENTS:
        events = pickle.loads(rpayload)
        rkind, rpayload = recv_frame(sock)
    if rkind == FRAME_ERR:
        raise pickle.loads(rpayload)
    if rkind != FRAME_OK:
        raise TransportCorruption(f"unexpected response frame kind {rkind}")
    return rpayload, events


def request(
    address: str,
    kind: int,
    payload: bytes = b"",
    timeout: float = CONNECT_TIMEOUT,
    retries: int = CONNECT_RETRIES,
) -> bytes:
    """One request/response round trip on a fresh connection.

    Returns the OK payload and folds the worker's events into the
    calling thread's sink; an ERR response re-raises the pickled
    exception the worker sent back.
    """
    with connect_with_retry(address, timeout=timeout, retries=retries) as sock:
        send_frame(sock, kind, payload)
        rpayload, events = recv_reply(sock)
    telemetry.fold(events)
    return rpayload


# ----------------------------------------------------------------------
# remote block references and the worker-side store
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SocketBlockRef:
    """Picklable wire reference to a block hosted by a worker daemon.

    The socket plane's analogue of :class:`~repro.runtime.buffers.
    BlockDescriptor`: everything a job needs to address tuples in a
    remote block — the hosting worker's address, the store-assigned
    block id, and the layout (``k``, ``capacity``).  ``owner`` is the
    owning task rank; writes with ``sender == owner`` are the exchange's
    diagonal and stay local to the hosting worker.
    """

    address: str
    block_id: int
    k: int
    capacity: int
    owner: int


class BlockStore:
    """Worker-side registry of hosted blocks (heap memory, id-keyed).

    Blocks live in the worker process's plain heap — a killed worker
    takes its blocks with it and can never leak ``/dev/shm`` names or
    disk files.  Allocation routes through a :class:`HeapBufferPool`
    so occupancy telemetry matches the in-process planes.
    """

    def __init__(self) -> None:
        self._pool = HeapBufferPool()
        self._blocks: Dict[int, TupleBlock] = {}
        self._lock = threading.Lock()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def allocate(self, k: int, capacity: int) -> int:
        block = self._pool.allocate(k, capacity)
        with self._lock:
            block_id = self._seq
            self._seq += 1
            self._blocks[block_id] = block
        return block_id

    def get(self, block_id: int) -> TupleBlock:
        with self._lock:
            try:
                return self._blocks[block_id]
            except KeyError:
                raise TransportError(
                    f"unknown block id {block_id} (freed or never allocated)"
                ) from None

    def free(self, block_id: int) -> None:
        with self._lock:
            block = self._blocks.pop(block_id, None)
        if block is not None:
            self._pool.release(block)

    def sweep(self) -> int:
        """Free every hosted block; returns how many were live."""
        with self._lock:
            blocks = list(self._blocks.values())
            n = len(blocks)
            self._blocks.clear()
        for block in blocks:
            self._pool.release(block)
        return n


#: address -> store of the worker daemon(s) living in *this* process.
#: Jobs running on a worker resolve that worker's own blocks zero-copy
#: instead of dialing themselves over loopback.
_LOCAL_STORES: Dict[str, BlockStore] = {}


def register_local_store(address: str, store: BlockStore) -> None:
    """Serve ``address``'s blocks from ``store`` in this process."""
    _LOCAL_STORES[address] = store


def unregister_local_store(address: str) -> None:
    """Undo :func:`register_local_store` (a no-op if not registered)."""
    _LOCAL_STORES.pop(address, None)


# ----------------------------------------------------------------------
# job-facing helpers (engine-agnostic: the same job functions run under
# every engine, dispatching on the handle type)
# ----------------------------------------------------------------------
def column_bytes(tuples: KmerTuples) -> Tuple[bytes, ...]:
    """The raw bytes of each tuple column, in
    :func:`~repro.kmers.codec.tuple_columns` order (the frame payload)."""
    return tuple(column.tobytes() for column in tuples.columns)


def tuples_from_columns(k: int, n: int, columns: Sequence[bytes]) -> KmerTuples:
    """Rebuild a tuple batch from :func:`column_bytes` output."""
    return KmerTuples.from_columns(
        k,
        [
            np.frombuffer(raw, dtype=dtype, count=n)
            for raw, (_, dtype) in zip(columns, tuple_columns(k))
        ],
    )


def write_block_region(
    handle: "PlaneHandle", at: int, tuples: KmerTuples, sender: int = -1
) -> None:
    """Write ``tuples`` into a block at offset ``at`` — the one copy
    per tuple of a stage hop, whatever the plane.

    Heap/shm handles write through :func:`open_block`; a
    :class:`SpillTarget` takes a positioned write into its in-flight
    spill file.  A :class:`SocketBlockRef` writes into the hosting
    worker's store: directly when this process *is* that worker and the
    write is the exchange diagonal (``sender == owner``), over a
    WRITE_REGION frame otherwise — which is where ``net.bytes_sent``
    accrues.
    """
    if isinstance(handle, SpillTarget):
        write_spill_region(handle, at, tuples, task=sender)
        return
    if isinstance(handle, SocketBlockRef):
        store = _LOCAL_STORES.get(handle.address)
        if store is not None and sender == handle.owner:
            store.get(handle.block_id).write(at, tuples)
            return
        columns = column_bytes(tuples)
        payload = pickle.dumps(
            (handle.block_id, at, sender, handle.owner, len(tuples), columns)
        )
        if sender != handle.owner and telemetry.enabled():
            telemetry.add_counter(
                "net.bytes_sent",
                sum(map(len, columns)),
                task=sender,
                aux=handle.owner,
            )
        request(handle.address, FRAME_WRITE_REGION, payload)
        return
    with open_block(handle) as block:
        block.write(at, tuples)


def fetch_block(ref: SocketBlockRef) -> TupleBlock:
    """Fetch a full copy of a remote block into a private heap block."""
    payload = request(ref.address, FRAME_GET_BLOCK, pickle.dumps(ref.block_id))
    k, n, columns = pickle.loads(payload)
    tuples = tuples_from_columns(k, n, columns)
    return TupleBlock(k, n, [column.copy() for column in tuples.columns])


@contextmanager
def resolve_block(handle: "PlaneHandle") -> Iterator[TupleBlock]:
    """Resolve any plane handle into a usable block for the ``with`` body.

    Heap/shm handles delegate to :func:`~repro.runtime.buffers.
    open_block`.  A :class:`SocketBlockRef` resolves zero-copy against
    the local store when this process hosts the block (the distributed
    engine places each owner job on the worker hosting its block), and
    falls back to fetching a private copy otherwise.  A sealed
    :class:`SpillTarget` is loaded as the job's one resident block and
    its file consumed on exit — each block has exactly one consumer.
    """
    if isinstance(handle, SpillTarget):
        with resident_spill(handle, consume=True) as block:
            yield block
        return
    if isinstance(handle, SocketBlockRef):
        store = _LOCAL_STORES.get(handle.address)
        if store is not None:
            yield store.get(handle.block_id)
        else:
            yield fetch_block(handle)
        return
    with open_block(handle) as block:
        yield block


# ----------------------------------------------------------------------
# the block plane
# ----------------------------------------------------------------------
class BlockTransport:
    """Interface every stage boundary goes through.

    ``publish`` allocates one owner task's exchange block and returns
    the handle job payloads carry; ``map_ids`` is the driver-side
    LocalCC-Opt window into a block's id column; ``seal`` is the barrier
    between the last write to the blocks and the stage that consumes
    them; ``release`` returns one block, ``close`` the whole plane.
    """

    name: str = "abstract"

    def publish(self, k: int, capacity: int, owner: int) -> "PlaneHandle":
        raise NotImplementedError

    def map_ids(
        self,
        handle: "PlaneHandle",
        lo: int,
        hi: int,
        fn: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        """Replace the ids of tuples ``[lo, hi)`` by ``fn(ids)`` (pure,
        elementwise, length-preserving) wherever the block lives."""
        raise NotImplementedError

    def seal(self, handles: Sequence["PlaneHandle"]) -> None:
        """Make every region write durable and visible to the blocks'
        consumers.  Memory-resident planes have nothing to do."""

    def release(self, handle: "PlaneHandle") -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release every block this plane still holds.  Idempotent."""

    def __enter__(self) -> "BlockTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PoolBlockTransport(BlockTransport):
    """The in-host planes: a :class:`BufferPool` behind the plane API.

    The ``heap`` plane wraps :class:`HeapBufferPool` (handles are the
    blocks themselves), the ``shm`` plane wraps
    :class:`SharedMemoryBufferPool` (handles are descriptors).
    """

    def __init__(self, pool: BufferPool) -> None:
        self._pool = pool
        self.name = "shm" if pool.kind == "shared" else "heap"
        #: id(handle) -> backing block; handles stay referenced by the
        #: driver between publish and release, so ids are stable
        self._blocks: Dict[int, TupleBlock] = {}

    def publish(self, k: int, capacity: int, owner: int) -> BlockHandle:
        block = self._pool.allocate(k, capacity)
        handle = block.handle()
        self._blocks[id(handle)] = block
        return handle

    def map_ids(self, handle: BlockHandle, lo: int, hi: int, fn) -> None:
        ids = self._blocks[id(handle)].view(lo, hi).read_ids
        ids[:] = fn(ids)

    def release(self, handle: BlockHandle) -> None:
        block = self._blocks.pop(id(handle), None)
        if block is not None:
            self._pool.release(block)

    def close(self) -> None:
        for block in self._blocks.values():
            self._pool.release(block)
        self._blocks.clear()
        self._pool.close()


class SocketBlockTransport(BlockTransport):
    """The cross-host plane: blocks hosted by worker daemons.

    ``publish(owner=d)`` allocates on worker ``d % W`` — the same
    placement rule the distributed engine uses for owner jobs, so every
    owner job finds its block in its own worker's local store.
    """

    name = "socket"

    def __init__(
        self,
        workers: Sequence[str],
        timeout: float = CONNECT_TIMEOUT,
        retries: int = CONNECT_RETRIES,
    ) -> None:
        workers = tuple(workers)
        if not workers:
            raise ValueError("socket transport needs >= 1 worker address")
        for address in workers:
            parse_address(address)
        self.workers = workers
        self.timeout = timeout
        self.retries = retries

    def _request(self, address: str, kind: int, payload: bytes) -> bytes:
        return request(
            address, kind, payload, timeout=self.timeout, retries=self.retries
        )

    def publish(self, k: int, capacity: int, owner: int) -> SocketBlockRef:
        address = self.workers[owner % len(self.workers)]
        payload = self._request(
            address, FRAME_ALLOC, pickle.dumps((k, capacity, owner))
        )
        return pickle.loads(payload)

    def map_ids(self, handle: SocketBlockRef, lo: int, hi: int, fn) -> None:
        payload = self._request(
            handle.address,
            FRAME_GET_IDS,
            pickle.dumps((handle.block_id, lo, hi)),
        )
        ids = np.frombuffer(payload, dtype=ID_DTYPE, count=hi - lo)
        raw = np.ascontiguousarray(fn(ids), dtype=ID_DTYPE).tobytes()
        self._request(
            handle.address,
            FRAME_PUT_IDS,
            pickle.dumps((handle.block_id, lo, hi, raw)),
        )

    def release(self, handle: SocketBlockRef) -> None:
        """Free one block on its owner.  Best-effort like :meth:`close`:
        release runs from the pipeline's ``finally`` after a failed
        stage too, and a crashed owner's heap store died with it — an
        unreachable worker must not mask the stage's own exception."""
        try:
            request(
                handle.address,
                FRAME_FREE,
                pickle.dumps(handle.block_id),
                timeout=self.timeout,
                retries=1,
            )
        except (TransportError, OSError):
            _LOG.debug(
                "free skipped: worker %s unreachable", handle.address
            )

    def close(self) -> None:
        """Best-effort: sweep every worker's store of leftover blocks.

        Tolerates dead workers — close runs from the pipeline's
        ``finally``, including after a worker crash, and must never
        mask the original failure."""
        for address in self.workers:
            try:
                request(
                    address, FRAME_SWEEP, timeout=self.timeout, retries=1
                )
            except (TransportError, OSError):
                _LOG.debug("sweep skipped: worker %s unreachable", address)


class DiskBlockTransport(BlockTransport):
    """The out-of-core plane: one spill file per published block.

    Every file operation is :mod:`repro.runtime.spill`'s; this class
    owns the run's private spill directory.  A block is
    preallocated under its in-flight name, region-written and id-mapped
    there, renamed to its final name by :meth:`seal` (fsync first — the
    consumer never sees a torn file), and deleted by its one
    :func:`resolve_block`.  :meth:`release` covers the failure paths and
    :meth:`close` — or, for an abandoned plane, a ``weakref.finalize``
    at GC/interpreter exit — removes the directory with everything
    still in it, the same two-layer sweep the shm pool uses, so a
    crashed run leaves zero orphan spill files.
    """

    name = "disk"

    def __init__(self, root: Optional[str] = None) -> None:
        self.directory = create_spill_dir(root)
        self._seq = 0
        self._finalizer = weakref.finalize(
            self, sweep_spill_dir, str(self.directory)
        )

    def publish(self, k: int, capacity: int, owner: int) -> SpillTarget:
        name = f"block{self._seq}-task{owner}{SPILL_SUFFIX}"
        self._seq += 1
        target = SpillTarget(
            str(self.directory / name), int(k), int(capacity), int(owner)
        )
        create_spill_file(target.inflight, k, capacity)
        return target

    def map_ids(self, handle: SpillTarget, lo: int, hi: int, fn) -> None:
        map_spill_ids(handle, lo, hi, fn)

    def seal(self, handles: Sequence[SpillTarget]) -> None:
        for handle in handles:
            seal_spill(handle)

    def release(self, handle: SpillTarget) -> None:
        consume_spill(handle.inflight)
        consume_spill(handle.path)

    def close(self) -> None:
        self._finalizer()


def create_block_transport(executor) -> BlockTransport:
    """The in-memory plane an engine implies: blocks must live where
    that engine's jobs can reach them — the caller's heap under
    ``serial``, ``/dev/shm`` across the ``process`` pool boundary, the
    workers' own stores under ``distributed``."""
    if executor.name == "distributed":
        return SocketBlockTransport(executor.worker_addresses)
    if executor.name == "process":
        return PoolBlockTransport(SharedMemoryBufferPool())
    return PoolBlockTransport(HeapBufferPool())


#: what job payloads may carry under any plane
PlaneHandle = Optional[object]  # TupleBlock | BlockDescriptor | SocketBlockRef | SpillTarget

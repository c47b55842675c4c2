"""Unit tests for the block plane.

Three layers, bottom up: the framed wire protocol (checksummed
length-prefixed frames over a socketpair — corruption must be *typed*,
never a silent mis-parse), the worker-side :class:`BlockStore`, and the
:class:`BlockTransport` implementations (the socket one against a live
loopback :class:`~repro.runtime.worker.WorkerDaemon`), ending with the
one lifecycle contract all four planes satisfy.
"""

import pickle
import socket
import struct
import types

import numpy as np
import pytest

from repro.kmers.codec import KmerArray
from repro.kmers.engine import KmerTuples
from repro import telemetry
from repro.runtime.transport import (
    FRAME_ERR,
    FRAME_EVENTS,
    FRAME_HEADER,
    FRAME_OK,
    FRAME_SET_SHARED,
    TRANSPORT_NAMES,
    BlockStore,
    DiskBlockTransport,
    PoolBlockTransport,
    SocketBlockRef,
    SocketBlockTransport,
    TransportClosed,
    TransportCorruption,
    TransportError,
    column_bytes,
    connect_with_retry,
    create_block_transport,
    parse_address,
    recv_frame,
    recv_reply,
    request,
    resolve_block,
    send_frame,
    tuples_from_columns,
    write_block_region,
)
from repro.runtime.buffers import HeapBufferPool, SharedMemoryBufferPool


def make_tuples(k, lo, ids):
    return KmerTuples(
        KmerArray(k, np.asarray(lo, dtype=np.uint64)),
        np.asarray(ids, dtype=np.uint32),
    )


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:9201") == ("127.0.0.1", 9201)

    def test_rejects_bare_host(self):
        with pytest.raises(ValueError, match="host:port"):
            parse_address("localhost")


class TestFrameProtocol:
    def roundtrip(self, kind, payload):
        a, b = socket.socketpair()
        try:
            send_frame(a, kind, payload)
            return recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_roundtrip(self):
        payload = bytes(range(256)) * 17
        assert self.roundtrip(FRAME_OK, payload) == (FRAME_OK, payload)

    def test_roundtrip_empty_payload(self):
        assert self.roundtrip(7, b"") == (7, b"")

    def test_clean_eof_is_transport_closed(self):
        a, b = socket.socketpair()
        a.close()
        try:
            with pytest.raises(TransportClosed):
                recv_frame(b)
        finally:
            b.close()

    def test_eof_mid_frame_is_corruption(self):
        a, b = socket.socketpair()
        try:
            # half a header, then EOF: a torn frame, not a clean close
            a.sendall(b"MPNT\x01\x00")
        finally:
            a.close()
        try:
            with pytest.raises(TransportCorruption, match="torn frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_corrupt_payload_detected(self):
        a, b = socket.socketpair()
        try:
            send_frame(a, FRAME_OK, b"payload-bytes")
        finally:
            a.close()
        try:
            raw = bytearray()
            while True:
                chunk = b.recv(4096)
                if not chunk:
                    break
                raw.extend(chunk)
        finally:
            b.close()
        raw[-1] ^= 0xFF  # flip one payload bit
        a2, b2 = socket.socketpair()
        try:
            a2.sendall(bytes(raw))
            a2.close()
            with pytest.raises(TransportCorruption, match="payload checksum"):
                recv_frame(b2)
        finally:
            b2.close()

    def test_corrupt_header_detected(self):
        a, b = socket.socketpair()
        try:
            # valid-looking header with a wrong header checksum
            head = FRAME_HEADER.pack(b"MPNT", 1, FRAME_OK, 0, 0, 0)
            head = head[:-4] + struct.pack("<I", 0xDEADBEEF)
            a.sendall(head)
            a.close()
            with pytest.raises(TransportCorruption, match="header checksum"):
                recv_frame(b)
        finally:
            b.close()

    def test_bad_magic_detected(self):
        import zlib

        a, b = socket.socketpair()
        try:
            head = FRAME_HEADER.pack(b"XXXX", 1, FRAME_OK, 0, 0, 0)
            head = head[:-4] + struct.pack("<I", zlib.crc32(head[:-4]))
            a.sendall(head)
            a.close()
            with pytest.raises(TransportCorruption, match="magic"):
                recv_frame(b)
        finally:
            b.close()


class TestReplyReader:
    """``recv_reply`` is the one reader of a worker's OK/ERR/EVENTS."""

    def reply(self, *frames):
        a, b = socket.socketpair()
        try:
            for kind, payload in frames:
                send_frame(a, kind, payload)
            return recv_reply(b)
        finally:
            a.close()
            b.close()

    def test_ok_without_events(self):
        assert self.reply((FRAME_OK, b"done")) == (b"done", [])

    def test_events_ride_ahead_of_ok(self):
        events = [(2, "cc.unions", 0, -1, 5, 0)]
        assert self.reply(
            (FRAME_EVENTS, pickle.dumps(events)), (FRAME_OK, b"done")
        ) == (b"done", events)

    def test_err_reraises_the_workers_exception(self):
        with pytest.raises(KeyError, match="gone"):
            self.reply((FRAME_ERR, pickle.dumps(KeyError("gone"))))

    def test_unexpected_kind_is_corruption(self):
        with pytest.raises(TransportCorruption, match="unexpected"):
            self.reply((FRAME_SET_SHARED, b""))


class TestConnectWithRetry:
    def test_unreachable_raises_transport_error(self):
        with pytest.raises(TransportError, match="could not connect"):
            connect_with_retry("127.0.0.1:9", timeout=0.2, retries=2,
                               delay=0.01)

    def test_connects_and_is_context_managed(self):
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        host, port = server.getsockname()
        try:
            with connect_with_retry(f"{host}:{port}", timeout=2.0) as sock:
                assert sock.getpeername() == (host, port)
        finally:
            server.close()


class TestBlockStore:
    def test_allocate_get_free(self):
        store = BlockStore()
        bid = store.allocate(21, 8)
        assert len(store) == 1
        block = store.get(bid)
        assert block.capacity == 8
        store.free(bid)
        assert len(store) == 0
        with pytest.raises(TransportError, match="unknown block id"):
            store.get(bid)

    def test_free_is_idempotent(self):
        store = BlockStore()
        bid = store.allocate(21, 4)
        store.free(bid)
        store.free(bid)

    def test_sweep_counts_live_blocks(self):
        store = BlockStore()
        store.allocate(21, 4)
        store.allocate(21, 4)
        assert store.sweep() == 2
        assert store.sweep() == 0

    def test_ids_never_reused(self):
        store = BlockStore()
        a = store.allocate(21, 4)
        store.free(a)
        b = store.allocate(21, 4)
        assert b != a


class TestPoolBlockTransport:
    def test_heap_plane_roundtrip(self):
        with PoolBlockTransport(HeapBufferPool()) as plane:
            assert plane.name == "heap"
            handle = plane.publish(21, 6, owner=0)
            write_block_region(
                handle, 0, make_tuples(21, [5, 3, 9], [1, 2, 3]), sender=0
            )
            with resolve_block(handle) as block:
                assert list(block.view(0, 3).read_ids) == [1, 2, 3]
            plane.map_ids(handle, 0, 3, lambda ids: ids + np.uint32(6))
            with resolve_block(handle) as block:
                assert list(block.view(0, 3).read_ids) == [7, 8, 9]
            plane.release(handle)


class TestSocketBlockTransport:
    @pytest.fixture()
    def daemon(self):
        from repro.runtime.worker import WorkerDaemon

        d = WorkerDaemon()
        d.start()
        yield d
        d.stop()

    def test_publish_write_read_release(self, daemon):
        with SocketBlockTransport((daemon.address,)) as plane:
            handle = plane.publish(21, 6, owner=0)
            assert isinstance(handle, SocketBlockRef)
            assert handle.address == daemon.address
            # a remote write (sender != owner) travels over the wire
            write_block_region(
                handle, 0, make_tuples(21, [5, 3, 9], [1, 2, 3]), sender=1
            )
            ids = daemon.store.get(handle.block_id).view(0, 3).read_ids
            assert list(ids) == [1, 2, 3]
            plane.map_ids(handle, 1, 3, lambda ids: ids + np.uint32(6))
            assert list(ids) == [1, 8, 9]
            plane.release(handle)
            with pytest.raises(TransportError, match="unknown block id"):
                plane.map_ids(handle, 0, 3, lambda ids: ids)

    def test_worker_events_fold_into_the_callers_buffer(self, daemon):
        """A collecting daemon sends each request's events home: the
        ALLOC's ``buffers.*`` and the receiver's ``net.bytes_recv`` land
        in the requester's buffer; its replies are not counted frames."""
        request(
            daemon.address,
            FRAME_SET_SHARED,
            pickle.dumps(types.SimpleNamespace(telemetry=True)),
        )
        with SocketBlockTransport((daemon.address,)) as plane:
            with telemetry.capture() as events:
                handle = plane.publish(21, 6, owner=0)
                write_block_region(
                    handle, 0, make_tuples(21, [5, 3, 9], [1, 2, 3]), sender=1
                )
            plane.release(handle)
        totals = {}
        for kind, name, task, aux, a, b in events:
            if name.startswith(("net.", "buffers.bytes")):
                totals[name] = totals.get(name, 0) + a
        nbytes = sum(map(len, column_bytes(make_tuples(21, [5, 3, 9], [1, 2, 3]))))
        assert totals["net.bytes_sent"] == totals["net.bytes_recv"] == nbytes
        assert totals["net.frames"] == 2  # ALLOC + WRITE_REGION requests
        assert totals["buffers.bytes_allocated"] > 0

    def test_local_store_resolves_zero_copy(self, daemon):
        with SocketBlockTransport((daemon.address,)) as plane:
            handle = plane.publish(21, 4, owner=0)
            # this process hosts the daemon, so the diagonal write and
            # the resolve both go through the local store directly
            write_block_region(
                handle, 0, make_tuples(21, [1, 2], [4, 5]), sender=0
            )
            with resolve_block(handle) as block:
                assert block is daemon.store.get(handle.block_id)
                assert list(block.view(0, 2).read_ids) == [4, 5]
            plane.release(handle)

    def test_remote_resolve_fetches_copy(self, daemon):
        from repro.runtime import transport as tp

        with SocketBlockTransport((daemon.address,)) as plane:
            handle = plane.publish(21, 2, owner=0)
            write_block_region(
                handle, 0, make_tuples(21, [1, 2], [4, 5]), sender=0
            )
            # simulate a non-hosting process: hide the local store
            saved = tp._LOCAL_STORES.pop(daemon.address)
            try:
                with resolve_block(handle) as block:
                    assert block is not daemon.store.get(handle.block_id)
                    assert list(block.view(0, 2).read_ids) == [4, 5]
            finally:
                tp._LOCAL_STORES[daemon.address] = saved
            plane.release(handle)

    def test_placement_follows_owner_modulo(self, daemon):
        from repro.runtime.worker import WorkerDaemon

        second = WorkerDaemon()
        second.start()
        try:
            with SocketBlockTransport(
                (daemon.address, second.address)
            ) as plane:
                h0 = plane.publish(21, 2, owner=0)
                h1 = plane.publish(21, 2, owner=1)
                h2 = plane.publish(21, 2, owner=2)
                assert h0.address == daemon.address
                assert h1.address == second.address
                assert h2.address == daemon.address
                for h in (h0, h1, h2):
                    plane.release(h)
        finally:
            second.stop()

    def test_close_sweeps_unreleased_blocks(self, daemon):
        plane = SocketBlockTransport((daemon.address,))
        plane.publish(21, 4, owner=0)
        plane.publish(21, 4, owner=1)
        assert len(daemon.store) == 2
        plane.close()
        assert len(daemon.store) == 0

    def test_release_tolerates_dead_worker(self, daemon):
        plane = SocketBlockTransport((daemon.address,), timeout=0.2)
        handle = plane.publish(21, 4, owner=0)
        daemon.stop()
        plane.release(handle)  # must not raise: cleanup is best-effort
        plane.close()


class TestCreateBlockTransport:
    """The in-memory plane is derived from the engine alone."""

    def test_serial_engine_gets_heap_plane(self):
        from repro.runtime.executor import create_engine

        with create_engine("serial") as ex:
            with create_block_transport(ex) as plane:
                assert isinstance(plane, PoolBlockTransport)
                assert plane.name == "heap"

    def test_distributed_engine_gets_socket_plane(self):
        from repro.runtime.executor import DistributedExecutor
        from repro.runtime.worker import WorkerDaemon

        d = WorkerDaemon()
        d.start()
        try:
            ex = DistributedExecutor((d.address,))
            with create_block_transport(ex) as plane:
                assert isinstance(plane, SocketBlockTransport)
                assert plane.workers == (d.address,)
            ex.close()
        finally:
            d.stop()


@pytest.fixture(params=TRANSPORT_NAMES)
def any_plane(request, tmp_path):
    name = request.param
    if name == "socket":
        from repro.runtime.worker import WorkerDaemon

        daemon = WorkerDaemon()
        daemon.start()
        try:
            with SocketBlockTransport((daemon.address,)) as plane:
                yield plane
        finally:
            daemon.stop()
    elif name == "disk":
        with DiskBlockTransport(tmp_path) as plane:
            yield plane
    else:
        pool = SharedMemoryBufferPool() if name == "shm" else HeapBufferPool()
        with PoolBlockTransport(pool) as plane:
            assert plane.name == name
            yield plane


def test_plane_contract(any_plane):
    """One lifecycle, identical tuples out, wherever the bytes live:
    publish -> region writes at static offsets -> map_ids -> seal ->
    one resolve -> release.  (The id map is a write, so it precedes the
    barrier.)  k = 33 carries the hi limb through every plane."""
    plane, k, n = any_plane, 33, 7
    rng = np.random.default_rng(3)
    lo = rng.integers(0, 2**63, n, dtype=np.uint64)
    hi = rng.integers(0, 2**63, n, dtype=np.uint64)
    ids = rng.integers(0, 2**31, n, dtype=np.uint32)
    tuples = KmerTuples(KmerArray(k, (hi, lo)), ids)

    handle = plane.publish(k, n, owner=0)
    # two senders, out of order: the diagonal, then an off-diagonal one
    write_block_region(handle, 3, tuples.take(np.arange(3, n)), sender=0)
    write_block_region(handle, 0, tuples.take(np.arange(0, 3)), sender=1)
    plane.map_ids(handle, 2, 5, lambda x: x + np.uint32(100))
    plane.seal([handle])
    with resolve_block(handle) as block:
        view = block.view(0, n)
        got = (view.kmers.lo.copy(), view.kmers.hi.copy(), view.read_ids.copy())
    plane.release(handle)

    expect_ids = ids.copy()
    expect_ids[2:5] += np.uint32(100)
    assert np.array_equal(got[0], lo)
    assert np.array_equal(got[1], hi)
    assert np.array_equal(got[2], expect_ids)


class TestColumnCodec:
    def test_two_limb_roundtrip(self):
        # k = 33 needs the hi limb; the codec must carry it
        lo = np.array([1, 2, 3], np.uint64)
        hi = np.array([9, 8, 7], np.uint64)
        tuples = KmerTuples(
            KmerArray(33, (hi, lo)), np.array([4, 5, 6], np.uint32)
        )
        columns = column_bytes(tuples)
        assert [len(c) for c in columns] == [24, 24, 12]  # hi, lo, ids
        back = tuples_from_columns(33, 3, columns)
        assert np.array_equal(back.kmers.lo, lo)
        assert np.array_equal(back.kmers.hi, hi)
        assert np.array_equal(back.read_ids, np.array([4, 5, 6], np.uint32))

    def test_single_limb_roundtrip(self):
        tuples = make_tuples(21, [1, 2], [3, 4])
        columns = column_bytes(tuples)
        assert [len(c) for c in columns] == [16, 8]  # lo, ids
        back = tuples_from_columns(21, 2, columns)
        assert back.kmers.hi is None
        assert np.array_equal(back.kmers.lo, tuples.kmers.lo)


def test_pickled_handle_roundtrips():
    ref = SocketBlockRef("127.0.0.1:9201", 3, 21, 100, owner=1)
    assert pickle.loads(pickle.dumps(ref)) == ref

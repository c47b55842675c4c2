"""Unit tests for the zero-copy columnar dataplane.

Both backings get the same block-semantics battery (write/view
aliasing), the descriptor is pinned as a constant-size wire format, and
the shared-memory pool's lifecycle guarantees — reuse, unlink-on-close,
finalizer sweep — are asserted against ``/dev/shm`` directly.
"""

import gc
import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.kmers.codec import KmerArray, limb_count
from repro.kmers.engine import KmerTuples
from repro.runtime.buffers import (
    BlockDescriptor,
    HeapBufferPool,
    SharedMemoryBufferPool,
    TupleBlock,
    attach_block,
    block_nbytes,
    open_block,
)


def random_tuples(rng, k, n):
    limbs = [
        rng.integers(0, 2**63, size=n, dtype=np.uint64)
        for _ in range(limb_count(k))
    ]
    ids = rng.integers(0, 2**31, size=n, dtype=np.uint32)
    return KmerTuples(KmerArray(k, limbs), ids)


def assert_tuples_equal(a, b):
    assert a.k == b.k
    for x, y in zip(a.columns, b.columns, strict=True):
        assert np.array_equal(x, y)


@pytest.fixture(params=["heap", "shared"])
def pool(request):
    p = HeapBufferPool() if request.param == "heap" else SharedMemoryBufferPool()
    yield p
    p.close()


class TestBlockSemantics:
    @pytest.mark.parametrize("k", [15, 31, 32, 33])
    def test_write_view_roundtrip(self, pool, k):
        rng = np.random.default_rng(0)
        tuples = random_tuples(rng, k, 50)
        block = pool.allocate(k, 50)
        assert block.write(0, tuples) == 50
        assert_tuples_equal(block.view(0, 50), tuples)

    def test_partial_writes_compose(self, pool):
        rng = np.random.default_rng(1)
        a, b = random_tuples(rng, 21, 10), random_tuples(rng, 21, 7)
        block = pool.allocate(21, 17)
        assert block.write(0, a) == 10
        assert block.write(10, b) == 17
        assert_tuples_equal(block.view(0, 10), a)
        assert_tuples_equal(block.view(10, 17), b)

    def test_view_aliases_backing(self, pool):
        rng = np.random.default_rng(2)
        block = pool.allocate(21, 5)
        block.write(0, random_tuples(rng, 21, 5))
        view = block.view(0, 5)
        view.read_ids[2] = 99
        assert block.view(2, 3).read_ids[0] == 99

    def test_write_out_of_range_rejected(self, pool):
        rng = np.random.default_rng(5)
        block = pool.allocate(21, 4)
        with pytest.raises(ValueError, match="out of range"):
            block.write(2, random_tuples(rng, 21, 3))

    def test_k_mismatch_rejected(self, pool):
        rng = np.random.default_rng(6)
        block = pool.allocate(21, 4)
        with pytest.raises(ValueError, match="k mismatch"):
            block.write(0, random_tuples(rng, 15, 2))

    def test_capacity_zero_block(self, pool):
        block = pool.allocate(21, 0)
        assert len(block) == 0
        assert len(block.view(0, 0)) == 0
        # empty blocks always have a descriptor (no backing to name)
        assert block.descriptor().segment == ""


class TestDescriptor:
    def test_heap_block_has_no_descriptor(self):
        block = HeapBufferPool().allocate(21, 4)
        with pytest.raises(ValueError, match="no cross-process descriptor"):
            block.descriptor()
        assert block.handle() is block

    def test_shared_handle_is_descriptor(self):
        pool = SharedMemoryBufferPool()
        try:
            block = pool.allocate(21, 4)
            handle = block.handle()
            assert isinstance(handle, BlockDescriptor)
            assert handle.segment == block.segment
        finally:
            pool.close()

    def test_descriptor_size_independent_of_capacity(self):
        pool = SharedMemoryBufferPool()
        try:
            small = pool.allocate(33, 1).descriptor()
            large = pool.allocate(33, 100_000).descriptor()
            # a few extra bytes for the wider ints, never the payload
            assert len(pickle.dumps(large)) <= len(pickle.dumps(small)) + 32
            assert len(pickle.dumps(large)) < 512
        finally:
            pool.close()

    @pytest.mark.parametrize("k", [15, 33])
    def test_attach_sees_creator_bytes(self, k):
        rng = np.random.default_rng(7)
        pool = SharedMemoryBufferPool()
        try:
            tuples = random_tuples(rng, k, 30)
            block = pool.allocate(k, 30)
            block.write(0, tuples)
            attached = attach_block(block.descriptor())
            assert_tuples_equal(attached.view(0, 30), tuples)
            # and writes flow back: it is the same memory
            attached.view().read_ids[0] = 12345
            assert block.view().read_ids[0] == 12345
        finally:
            pool.close()

    def test_retained_view_outlives_attachment_wrapper(self):
        """Mapping ownership belongs to the views: a view taken from a
        temporary attachment must stay readable after the wrapper (and a
        GC pass) are gone — dangling here is a segfault, not an error."""
        rng = np.random.default_rng(9)
        pool = SharedMemoryBufferPool()
        try:
            tuples = random_tuples(rng, 21, 1000)
            block = pool.allocate(21, 1000)
            block.write(0, tuples)
            view = attach_block(block.descriptor()).view(0, 1000)
            gc.collect()
            assert_tuples_equal(view, tuples)
        finally:
            pool.close()

    def test_open_block_passes_heap_through(self):
        block = HeapBufferPool().allocate(21, 4)
        with open_block(block) as opened:
            assert opened is block

    def test_open_block_attaches_descriptor(self):
        rng = np.random.default_rng(8)
        pool = SharedMemoryBufferPool()
        try:
            tuples = random_tuples(rng, 21, 6)
            block = pool.allocate(21, 6)
            block.write(0, tuples)
            with open_block(block.descriptor()) as opened:
                assert opened is not block
                assert_tuples_equal(opened.view(0, 6), tuples)
            assert opened.columns is None  # columns dropped on exit
        finally:
            pool.close()


def _shm_names():
    shm = Path("/dev/shm")
    if not shm.is_dir():
        pytest.skip("no /dev/shm on this platform")
    return {p.name for p in shm.iterdir() if p.name.startswith("metaprep-")}


class TestSharedMemoryPool:
    def test_size_class_is_power_of_two(self):
        for nbytes in [1, 4095, 4096, 4097, 100_000]:
            size = SharedMemoryBufferPool._size_class(nbytes)
            assert size >= max(nbytes, SharedMemoryBufferPool.MIN_SEGMENT_BYTES)
            assert size & (size - 1) == 0

    def test_release_reuses_segment(self):
        pool = SharedMemoryBufferPool()
        try:
            a = pool.allocate(21, 100)
            name = a.segment
            pool.release(a)
            b = pool.allocate(21, 90)  # same size class
            assert b.segment == name
            assert pool.segments_created == 1
            assert pool.segments_reused == 1
            assert pool.live_segments == 1
        finally:
            pool.close()

    def test_close_unlinks_everything(self):
        pool = SharedMemoryBufferPool()
        blocks = [pool.allocate(21, 50) for _ in range(3)]
        names = {b.segment for b in blocks}
        assert names <= _shm_names()
        for b in blocks:
            pool.release(b)
        pool.close()
        assert not (names & _shm_names())
        assert pool.live_segments == 0
        pool.close()  # idempotent

    def test_close_with_live_views_still_unlinks(self):
        pool = SharedMemoryBufferPool()
        block = pool.allocate(21, 50)
        name = block.segment
        view = block.view(0, 10)  # keeps the mapping alive through close
        pool.close()
        assert name not in _shm_names()
        assert view.read_ids.shape == (10,)  # mapping survives unlink

    def test_abandoned_pool_swept_by_finalizer(self):
        pool = SharedMemoryBufferPool()
        name = pool.allocate(21, 50).segment
        assert name in _shm_names()
        del pool
        gc.collect()
        assert name not in _shm_names()


class TestCreateBufferPool:
    def test_auto_resolves_by_engine(self):
        """No knob picks the backing: the engine's block plane does —
        heap where jobs run inline, shared memory across a pool."""
        from repro.runtime.executor import create_engine
        from repro.runtime.transport import create_block_transport

        for engine, name in (("serial", "heap"), ("process", "shm")):
            with create_engine(engine) as ex, create_block_transport(ex) as plane:
                assert plane.name == name


class TestBlockNbytes:
    def test_paper_tuple_accounting(self):
        # 12 bytes one-limb (8 key + 4 id), 20 bytes two-limb (16 + 4)
        assert block_nbytes(27, 10) == 120
        assert block_nbytes(32, 10) == 200
        assert block_nbytes(33, 10) == 200

    def test_block_reports_nbytes(self):
        assert HeapBufferPool().allocate(27, 10).nbytes == 120


class TestConstruction:
    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            TupleBlock(21, -1, [np.empty(0, np.uint64), np.empty(0, np.uint32)])


class TestPoolStats:
    """Public occupancy/HWM accounting — identical across backings."""

    @pytest.fixture(params=["heap", "shared"])
    def fresh_pool(self, request):
        p = (
            HeapBufferPool()
            if request.param == "heap"
            else SharedMemoryBufferPool()
        )
        yield p
        close = getattr(p, "close", None)
        if close:
            close()

    def test_starts_empty(self, fresh_pool):
        s = fresh_pool.stats()
        assert (s.in_use_blocks, s.in_use_bytes) == (0, 0)
        assert (s.hwm_blocks, s.hwm_bytes) == (0, 0)
        assert (s.allocated_blocks, s.allocated_bytes) == (0, 0)
        assert s.kind == fresh_pool.kind

    def test_hwm_tracks_peak_not_current(self, fresh_pool):
        a = fresh_pool.allocate(27, 10)
        b = fresh_pool.allocate(27, 10)
        peak = fresh_pool.stats()
        assert peak.in_use_blocks == 2
        assert peak.hwm_bytes == 2 * block_nbytes(27, 10)
        fresh_pool.release(a)
        fresh_pool.release(b)
        after = fresh_pool.stats()
        assert (after.in_use_blocks, after.in_use_bytes) == (0, 0)
        assert after.hwm_blocks == 2  # peak survives the releases
        assert after.hwm_bytes == peak.hwm_bytes
        assert after.allocated_blocks == 2

    def test_empty_blocks_do_not_count(self, fresh_pool):
        block = fresh_pool.allocate(27, 0)
        assert fresh_pool.stats().in_use_blocks == 0
        fresh_pool.release(block)
        assert fresh_pool.stats().allocated_blocks == 0

    def test_double_release_does_not_underflow(self, fresh_pool):
        block = fresh_pool.allocate(27, 4)
        fresh_pool.release(block)
        fresh_pool.release(block)  # views already nulled: guarded no-op
        s = fresh_pool.stats()
        assert (s.in_use_blocks, s.in_use_bytes) == (0, 0)

    def test_allocate_emits_telemetry_gauges(self, fresh_pool):
        from repro import telemetry
        from repro.telemetry.collect import TelemetryCollector

        collector = TelemetryCollector()
        telemetry.activate(collector)
        try:
            block = fresh_pool.allocate(27, 10)
            fresh_pool.release(block)
        finally:
            telemetry.deactivate()
        run = collector.finalize(n_tasks=1)
        nbytes = block_nbytes(27, 10)
        assert run.counter_total("buffers.bytes_allocated") == nbytes
        assert run.gauge_max("buffers.pool_hwm_bytes") == nbytes
        assert run.gauge_max("buffers.pool_in_use_blocks") == 1

"""Out-of-core spill module and the disk block plane over it: wire
format, torn-write behavior, region writes, residency accounting, and
spill-directory hygiene."""

import hashlib
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.kmers.codec import KmerArray, limb_count
from repro.kmers.engine import KmerTuples
from repro.runtime.buffers import HeapBufferPool, SharedMemoryBufferPool
from repro.runtime.spill import (
    SpillCorruption,
    SpillLayout,
    SpillTarget,
    _resident_state,
    consume_spill,
    read_spill,
    resident_spill,
    sweep_stale_spill_dirs,
    write_spill,
)
from repro.runtime.transport import (
    DiskBlockTransport,
    resolve_block,
    write_block_region,
)


def resident_bytes():
    """Spilled tuple bytes resident on this thread (the ledger the
    ``spill.tuple_bytes_resident`` gauge samples)."""
    return _resident_state()["bytes"]


def make_tuples(k, n, seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.integers(0, 2**63, n, dtype=np.uint64)
    upper = [
        rng.integers(0, 2**63, n, dtype=np.uint64)
        for _ in range(limb_count(k) - 1)
    ]
    ids = rng.integers(0, 2**32, n, dtype=np.uint32)
    return KmerTuples(KmerArray(k, (*upper, lo)), ids)


def assert_tuples_equal(a, b):
    for x, y in zip(a.columns, b.columns, strict=True):
        assert np.array_equal(x, y)


def make_block(pool, k, n, seed=0):
    tuples = make_tuples(k, n, seed)
    block = pool.allocate(k, n)
    block.write(0, tuples)
    return block, tuples


@pytest.fixture
def pool():
    p = HeapBufferPool()
    yield p
    p.close()


@pytest.fixture
def plane(tmp_path):
    with DiskBlockTransport(tmp_path) as p:
        yield p


class TestRoundTrip:
    @pytest.mark.parametrize("k", [15, 31, 32, 33])
    def test_write_read_bit_identical(self, pool, tmp_path, k):
        block, tuples = make_block(pool, k, 123)
        path = tmp_path / "a.spill"
        write_spill(path, block)
        got = read_spill(path, pool)
        assert_tuples_equal(got.view(0, 123), tuples)
        pool.release(block)
        pool.release(got)

    @pytest.mark.parametrize(
        "k,sha256",
        [
            (27, "bbd95791080f31cba77074d59b74769ac68b37b016545fef398636355b61123c"),
            (32, "bbab1e05567a67ebe2c2a67c534c82efcafbc9d3283a2d11f0abb80b2572ae31"),
            (63, "5b815784c6964df7184e7b4c15faa7057ba935c8bfb8ab8f5a081f170604aad2"),
        ],
    )
    def test_tuple_block_bytes_pinned(self, pool, tmp_path, k, sha256):
        """The MPREPTAB tuple-block bytes of fixed, seeded blocks — header,
        column names and order (``lo``, ``ids``, ``hi``) — are pinned, so a
        layout change on the writer and the reader alike still fails."""
        block, _ = make_block(pool, k, 50, seed=2017)
        path = tmp_path / "a.spill"
        write_spill(path, block)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
        pool.release(block)

    def test_partial_length_spills_live_prefix(self, pool, tmp_path):
        block, tuples = make_block(pool, 21, 100)
        path = tmp_path / "a.spill"
        write_spill(path, block, length=40)
        got = read_spill(path, pool)
        assert got.capacity == 40
        assert np.array_equal(
            got.view(0, 40).kmers.lo, tuples.kmers.lo[:40]
        )
        pool.release(block)
        pool.release(got)

    def test_zero_tuple_block(self, pool, tmp_path):
        block = pool.allocate(27, 0)
        path = tmp_path / "empty.spill"
        write_spill(path, block)
        got = read_spill(path, pool)
        assert got.capacity == 0
        pool.release(block)
        pool.release(got)

    def test_restores_into_shared_pool(self, pool, tmp_path):
        """Backing is the loader's choice: heap-written spill restores
        into a shared-memory segment with identical bytes."""
        block, tuples = make_block(pool, 33, 64)
        path = tmp_path / "a.spill"
        write_spill(path, block)
        shared = SharedMemoryBufferPool()
        try:
            got = read_spill(path, shared)
            assert_tuples_equal(got.view(0, 64), tuples)
            shared.release(got)
        finally:
            shared.close()
        pool.release(block)

    def test_no_tmp_file_left_after_publish(self, pool, tmp_path):
        block, _ = make_block(pool, 21, 10)
        write_spill(tmp_path / "a.spill", block)
        assert [p.name for p in tmp_path.iterdir()] == ["a.spill"]
        pool.release(block)


class TestRegionWrites:
    @pytest.mark.parametrize("k", [15, 32, 33])
    def test_region_filled_equals_single_shot(self, pool, plane, tmp_path, k):
        """The load-bearing layout property: a published block filled
        region by region and sealed is byte-identical to one spilled in
        one shot."""
        n = 97
        block, tuples = make_block(pool, k, n)
        one_shot = tmp_path / "one.spill"
        write_spill(one_shot, block)

        handle = plane.publish(k, n, owner=0)
        at = 0
        for cut in (0, 13, 13, 60, n):  # includes an empty region
            write_block_region(handle, at, tuples.take(np.arange(at, cut)))
            at = cut
        plane.seal([handle])
        assert one_shot.read_bytes() == Path(handle.path).read_bytes()
        pool.release(block)

    def test_out_of_range_region_rejected(self, plane):
        handle = plane.publish(21, 10, owner=0)
        with pytest.raises(ValueError, match="out of range"):
            write_block_region(handle, 5, make_tuples(21, 6))

    def test_k_mismatch_rejected(self, plane):
        handle = plane.publish(21, 10, owner=0)
        with pytest.raises(ValueError, match="k mismatch"):
            write_block_region(handle, 0, make_tuples(27, 5))

    def test_rewrite_ids_region(self, plane):
        tuples = make_tuples(21, 50)
        handle = plane.publish(21, 50, owner=0)
        write_block_region(handle, 0, tuples)
        plane.map_ids(handle, 10, 30, lambda ids: ids * np.uint32(2))
        plane.seal([handle])
        expect = tuples.read_ids.copy()
        expect[10:30] *= np.uint32(2)
        with resolve_block(handle) as got:
            view = got.view(0, 50)
            assert np.array_equal(view.read_ids, expect)
            # the k-mer columns are untouched
            assert np.array_equal(view.kmers.lo, tuples.kmers.lo)

    def test_rewrite_ids_length_change_rejected(self, plane):
        handle = plane.publish(21, 20, owner=0)
        write_block_region(handle, 0, make_tuples(21, 20))
        with pytest.raises(ValueError, match="length"):
            plane.map_ids(handle, 0, 10, lambda ids: ids[:-1])


class TestTornWrites:
    """Corruption must raise the typed error; a partial block is never
    returned."""

    def _spill(self, pool, tmp_path, k=21, n=40):
        block, _ = make_block(pool, k, n)
        path = tmp_path / "a.spill"
        write_spill(path, block)
        pool.release(block)
        return path

    def test_truncated_mid_magic(self, pool, tmp_path):
        path = self._spill(pool, tmp_path)
        path.write_bytes(path.read_bytes()[:4])
        with pytest.raises(SpillCorruption):
            read_spill(path, pool)

    def test_truncated_header(self, pool, tmp_path):
        path = self._spill(pool, tmp_path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(SpillCorruption):
            read_spill(path, pool)

    def test_truncated_payload(self, pool, tmp_path):
        path = self._spill(pool, tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 7])
        with pytest.raises(SpillCorruption):
            read_spill(path, pool)

    def test_bad_magic(self, pool, tmp_path):
        path = self._spill(pool, tmp_path)
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTATABL"
        path.write_bytes(bytes(data))
        with pytest.raises(SpillCorruption):
            read_spill(path, pool)

    def test_version_skew(self, pool, tmp_path):
        path = self._spill(pool, tmp_path)
        data = bytearray(path.read_bytes())
        # the <II (version, hlen) prolog sits right after the magic
        data[8:12] = struct.pack("<I", 999)
        path.write_bytes(bytes(data))
        with pytest.raises(SpillCorruption):
            read_spill(path, pool)

    def test_wrong_schema(self, pool, tmp_path):
        from repro.seqio.tables import write_table

        path = tmp_path / "a.spill"
        write_table(
            path, "metaprep/other", {"k": 21}, {"lo": np.zeros(3, np.uint64)}
        )
        with pytest.raises(SpillCorruption):
            read_spill(path, pool)

    def test_contradictory_two_limb_flag(self, pool, tmp_path):
        from repro.seqio.tables import write_table

        path = tmp_path / "a.spill"
        write_table(
            path,
            "metaprep/tupleblock",
            {"k": 21, "length": 3, "two_limb": True},
            {
                "lo": np.zeros(3, np.uint64),
                "ids": np.zeros(3, np.uint32),
                "hi": np.zeros(3, np.uint64),
            },
        )
        with pytest.raises(SpillCorruption, match="contradicts"):
            read_spill(path, pool)

    def test_missing_file_stays_file_not_found(self, pool, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_spill(tmp_path / "absent.spill", pool)


class TestResidency:
    def test_resident_spill_accounts_and_releases(self, pool, tmp_path):
        block, tuples = make_block(pool, 21, 64)
        path = tmp_path / "a.spill"
        write_spill(path, block)
        target = SpillTarget(str(path), 21, 64)
        base = resident_bytes()
        with resident_spill(target) as got:
            assert resident_bytes() == base + got.nbytes
            assert np.array_equal(got.view(0, 64).read_ids, tuples.read_ids)
        assert resident_bytes() == base
        assert path.exists()
        pool.release(block)

    def test_consume_deletes_after_exit(self, pool, tmp_path):
        block, _ = make_block(pool, 21, 8)
        path = tmp_path / "a.spill"
        write_spill(path, block)
        with resident_spill(SpillTarget(str(path), 21, 8), consume=True):
            assert path.exists()
        assert not path.exists()
        pool.release(block)

    def test_consume_is_idempotent(self, tmp_path):
        consume_spill(tmp_path / "never-existed.spill")


class TestSpillLayout:
    def test_layout_matches_file(self, pool, tmp_path):
        block, tuples = make_block(pool, 33, 17)
        path = tmp_path / "a.spill"
        write_spill(path, block)
        layout = SpillLayout.for_block(33, 17)
        data = path.read_bytes()
        assert len(data) == layout.file_bytes
        assert list(layout.offsets) == ["lo", "ids", "hi"]  # file order
        for name, column in (
            ("lo", tuples.kmers.lo),
            ("ids", tuples.read_ids),
            ("hi", tuples.kmers.hi),
        ):
            start = layout.offsets[name]
            got = np.frombuffer(data[start : start + column.nbytes], column.dtype)
            assert np.array_equal(got, column)
        pool.release(block)

    def test_one_limb_has_no_hi_offset(self):
        assert list(SpillLayout.for_block(21, 5).offsets) == ["lo", "ids"]

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            SpillLayout.for_block(21, -1)


class TestSpillManager:
    """Lifecycle of the disk plane and its private spill directory (the
    cases of the ``SpillManager`` the plane replaced)."""

    def test_create_publish_consume_cycle(self, tmp_path):
        with DiskBlockTransport(tmp_path) as plane:
            handles = [
                plane.publish(21, n, owner=d) for d, n in enumerate([10, 0, 5])
            ]
            # preallocated under the in-flight name only
            assert all(os.path.exists(h.inflight) for h in handles)
            assert not any(os.path.exists(h.path) for h in handles)
            for h in handles:
                write_block_region(h, 0, make_tuples(21, h.capacity))
            plane.seal(handles)
            assert all(h.path.endswith(".spill") for h in handles)
            assert not any(os.path.exists(h.inflight) for h in handles)
            for h in handles:
                with resolve_block(h) as block:
                    assert block.capacity == h.capacity
            # each block's one consumer already deleted its file
            assert list(plane.directory.iterdir()) == []
        assert not plane.directory.exists()

    def test_close_removes_unconsumed_files(self, tmp_path):
        plane = DiskBlockTransport(tmp_path)
        plane.publish(21, 4, owner=0)
        plane.publish(21, 4, owner=1)
        assert len(list(plane.directory.iterdir())) == 2
        plane.close()
        assert not plane.directory.exists()
        plane.close()  # idempotent

    def test_sweep_pass_covers_failure_paths(self, plane):
        """``release`` removes a block wherever a failed pass left it."""
        handles = [plane.publish(21, 4, owner=d) for d in range(2)]
        plane.seal(handles[:1])  # one sealed, one still in flight
        for h in handles:
            plane.release(h)
            plane.release(h)  # idempotent
        assert list(plane.directory.iterdir()) == []

    def test_publish_is_idempotent_for_final_names(self, plane):
        """Sealing a sealed block changes nothing."""
        handle = plane.publish(21, 3, owner=0)
        write_block_region(handle, 0, make_tuples(21, 3))
        plane.seal([handle])
        once = Path(handle.path).read_bytes()
        plane.seal([handle])
        assert Path(handle.path).read_bytes() == once

    def test_unsealed_block_invisible_to_consumer(self, plane):
        """A writer that died before the seal barrier leaves nothing a
        consumer could mistake for a complete block."""
        handle = plane.publish(21, 4, owner=0)
        write_block_region(handle, 0, make_tuples(21, 2))  # torn: 2 of 4
        with pytest.raises(FileNotFoundError):
            with resolve_block(handle):
                pass

    def test_truncated_sealed_block_is_corruption(self, plane):
        handle = plane.publish(21, 4, owner=0)
        write_block_region(handle, 0, make_tuples(21, 4))
        plane.seal([handle])
        data = Path(handle.path).read_bytes()
        Path(handle.path).write_bytes(data[: len(data) - 7])
        with pytest.raises(SpillCorruption):
            with resolve_block(handle):
                pass

    def test_finalizer_sweeps_on_gc(self, tmp_path):
        plane = DiskBlockTransport(tmp_path)
        directory = plane.directory
        plane.publish(21, 4, owner=0)
        del plane
        import gc

        gc.collect()
        assert not directory.exists()


class TestStaleSweep:
    def test_dead_pid_dir_swept(self, tmp_path):
        # a pid that existed and is now certainly dead
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(proc.stdout.strip())
        stale = tmp_path / f"metaprep-spill-{dead_pid}-abc123"
        stale.mkdir()
        (stale / "pass0-task0.spill").write_bytes(b"junk")
        removed = sweep_stale_spill_dirs(tmp_path)
        assert stale in removed
        assert not stale.exists()

    def test_live_pid_dir_kept(self, tmp_path):
        live = tmp_path / f"metaprep-spill-{os.getpid()}-abc123"
        live.mkdir()
        assert sweep_stale_spill_dirs(tmp_path) == []
        assert live.exists()

    def test_unparseable_names_left_alone(self, tmp_path):
        odd = tmp_path / "metaprep-spill-notapid"
        odd.mkdir()
        assert sweep_stale_spill_dirs(tmp_path) == []
        assert odd.exists()

    def test_manager_sweeps_stale_on_startup(self, tmp_path):
        """Crash injection: a process hard-killed mid-pass (no finally,
        no finalizer) leaves its spill directory behind; the next disk
        plane under the same root reaps it — zero orphans."""
        crash = (
            "import os, sys\n"
            "from repro.runtime.transport import DiskBlockTransport\n"
            "plane = DiskBlockTransport(sys.argv[1])\n"
            "plane.publish(21, 8, owner=0)\n"
            "print(plane.directory, flush=True)\n"
            "os._exit(1)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", crash, str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 1
        stale = Path(proc.stdout.strip())
        assert len(list(stale.iterdir())) == 1
        with DiskBlockTransport(tmp_path):
            assert not stale.exists()

"""Zero-copy columnar tuple buffers: the dataplane under every stage hop.

The paper moves (k-mer, read id) tuples through KmerGen -> Comm ->
LocalSort -> LocalCC without redundant copies: threads append into
per-task send buffers at offsets precomputed from the FASTQPart table
(section 3.2.2), the custom all-to-all lands messages directly in the
receive buffer (section 3.3), and LocalSort ping-pongs in a bounded
scratch (section 3.4).  The historical ``executor="process"`` backend
broke that discipline — every stage hop pickled, copied, and unpickled
the columnar arrays across the pool boundary.

This module restores the paper's buffer discipline:

* :class:`TupleBlock` — a fixed-layout columnar buffer holding the
  columns of :func:`~repro.kmers.codec.tuple_columns`: the key limbs
  (``uint64``, most significant first), then the read ids (``uint32``).
  The layout is exactly the paper's 12-byte (k <= 31) / 20-byte
  (k <= 63) tuple accounting, laid out column-major in one contiguous
  allocation.
* :class:`BlockDescriptor` — the picklable wire format of a block:
  segment name, ``k`` and capacity, which fix every column's dtype and
  byte offset.  A descriptor is a few hundred bytes regardless of how
  many tuples the block holds; shipping it through the process pool
  replaces shipping the payload.
* :class:`HeapBufferPool` — plain in-process ndarray backing (the
  serial engine; unchanged semantics, zero new copies).
* :class:`SharedMemoryBufferPool` — ``multiprocessing.shared_memory``
  backing with a pooling allocator (freed segments are reused across
  passes) and guaranteed unlink-on-exit (``close()`` in the pipeline's
  ``finally``, plus a ``weakref.finalize`` safety net for abandoned
  pools).

**Lifecycle rules.**  Segments are created *only* by a pool, and only
the creating pool unlinks them — workers attach read-write views via
:func:`open_block` and drop them when the job ends.  This split keeps
the ``resource_tracker`` ledger balanced under the ``fork`` start
method (create registers once, unlink unregisters once; worker attaches
collapse in the tracker's name set) so a clean run leaves no
``/dev/shm`` residue and no tracker warnings, and a crashed run is
swept by the pool's ``finally``/finalizer or, last resort, the tracker
itself.  ``tests/runtime/test_buffers.py`` and the crash legs of
``tests/property/test_props_executor.py`` assert the residue-free
outcome against ``/dev/shm`` directly.
"""

from __future__ import annotations

import os
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Union

import numpy as np

from repro import telemetry
from repro.kmers.codec import MAX_K_TWO_LIMB, tuple_bytes, tuple_columns
from repro.kmers.engine import KmerTuples
from repro.util.logging import get_logger
from repro.util.validation import check_in_range

_LOG = get_logger("runtime.buffers")

#: shm segment name prefix; the crash-safety tests scan /dev/shm for it
SEGMENT_PREFIX = "metaprep"


def block_nbytes(k: int, capacity: int) -> int:
    """Payload bytes of a ``capacity``-tuple block: 12 or 20 per tuple,
    exactly the paper's tuple accounting."""
    return tuple_bytes(k) * capacity


@dataclass(frozen=True)
class BlockDescriptor:
    """Picklable wire format of a :class:`TupleBlock`.

    Carries everything a worker needs to rebuild zero-copy views into
    the backing segment: the segment name, ``k`` and the shape
    (``capacity``) — together they fix every column's dtype and byte
    offset (:func:`_column_offsets`).  ``segment`` is the empty string
    for capacity-0 blocks, which need no backing at all.
    """

    segment: str
    k: int
    capacity: int
    nbytes: int


def _column_offsets(k: int, capacity: int) -> list:
    """Byte offset of each column, in :func:`tuple_columns` order.  The
    8-byte limbs precede the 4-byte ids, so every column is aligned."""
    offsets, at = [], 0
    for _, dtype in tuple_columns(k):
        offsets.append(at)
        at += capacity * dtype.itemsize
    return offsets


class TupleBlock:
    """A columnar (k-mer limbs + read ids) buffer with explicit backing.

    ``columns`` are parallel arrays over one contiguous buffer — plain
    heap ndarrays or views into a shared-memory segment — in
    :func:`tuple_columns` order.  Stage code reads and writes *views*
    (:meth:`view`, :meth:`write`) and LocalSort reorders ``columns`` in
    place; the buffer itself moves between processes as a
    :class:`BlockDescriptor`, never as a pickled payload.
    """

    __slots__ = ("k", "capacity", "columns", "segment", "_shm", "__weakref__")

    def __init__(
        self,
        k: int,
        capacity: int,
        columns,
        segment: str = "",
        shm=None,
    ) -> None:
        check_in_range("k", k, 1, MAX_K_TWO_LIMB)
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.k = int(k)
        self.capacity = int(capacity)
        self.columns = tuple(columns)
        #: shared-memory segment name; "" for heap blocks
        self.segment = segment
        self._shm = shm

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.capacity

    @property
    def nbytes(self) -> int:
        return block_nbytes(self.k, self.capacity)

    @property
    def shared(self) -> bool:
        return bool(self.segment)

    def descriptor(self) -> BlockDescriptor:
        """The block's wire format (valid for shared blocks and for empty
        blocks, which travel as backing-less descriptors)."""
        if not self.segment and self.capacity > 0:
            raise ValueError(
                "heap-backed blocks have no cross-process descriptor; "
                "pass the block object itself (serial engine) or allocate "
                "from a SharedMemoryBufferPool"
            )
        return BlockDescriptor(
            segment=self.segment,
            k=self.k,
            capacity=self.capacity,
            nbytes=self.nbytes,
        )

    def handle(self) -> "BlockHandle":
        """What to put in an executor job payload: the descriptor for
        shared/empty blocks, the block itself for heap blocks (which only
        the serial engine may ship — same process, no pickling)."""
        if self.segment or self.capacity == 0:
            return self.descriptor()
        return self

    # ------------------------------------------------------------------
    # stage-facing views and writes
    # ------------------------------------------------------------------
    def view(self, lo_idx: int = 0, hi_idx: int | None = None) -> KmerTuples:
        """Zero-copy :class:`KmerTuples` over ``[lo_idx, hi_idx)``.

        The returned tuple batch aliases the block's backing: mutating
        the block changes the view and vice versa.
        """
        hi_idx = self.capacity if hi_idx is None else hi_idx
        if not (0 <= lo_idx <= hi_idx <= self.capacity):
            raise ValueError(
                f"view [{lo_idx}, {hi_idx}) out of range for capacity "
                f"{self.capacity}"
            )
        return KmerTuples.from_columns(
            self.k, [column[lo_idx:hi_idx] for column in self.columns]
        )

    def write(self, at: int, tuples: KmerTuples) -> int:
        """Copy ``tuples`` into the block starting at ``at``; returns the
        end position.  This is the dataplane's *one* copy per tuple —
        the append into the exchange buffer."""
        if tuples.k != self.k:
            raise ValueError(f"k mismatch: block {self.k}, tuples {tuples.k}")
        n = len(tuples)
        end = at + n
        if not (0 <= at and end <= self.capacity):
            raise ValueError(
                f"write [{at}, {end}) out of range for capacity {self.capacity}"
            )
        if n == 0:
            return end
        for column, values in zip(self.columns, tuples.columns):
            column[at:end] = values
        return end

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = f"shm:{self.segment}" if self.segment else "heap"
        return f"TupleBlock(k={self.k}, capacity={self.capacity}, {kind})"


#: what job payloads carry: a descriptor (shared/empty) or, under the
#: serial engine only, the heap block itself
BlockHandle = Union[TupleBlock, BlockDescriptor]


def _heap_block(k: int, capacity: int) -> TupleBlock:
    return TupleBlock(
        k, capacity, [np.empty(capacity, dtype) for _, dtype in tuple_columns(k)]
    )


def _views_over(buf, k: int, capacity: int, segment: str, shm=None) -> TupleBlock:
    columns = [
        np.ndarray((capacity,), dtype=dtype, buffer=buf, offset=offset)
        for (_, dtype), offset in zip(
            tuple_columns(k), _column_offsets(k, capacity)
        )
    ]
    return TupleBlock(k, capacity, columns, segment=segment, shm=shm)


def attach_block(descriptor: BlockDescriptor) -> TupleBlock:
    """Attach read-write views to an existing segment (worker side).

    Zero-copy: the views alias the creator's memory.  The attachment
    owns no lifecycle — the segment's fd is closed immediately (the
    mapping persists, per POSIX), and mapping ownership is handed to the
    views themselves: the ``SharedMemory`` wrapper is stripped of its
    mmap before it can be garbage-collected, so the mapping lives
    exactly as long as the last array that aliases it (``memoryview ->
    mmap`` base chain), never shorter.  The creating pool remains the
    only unlinker, so workers cannot leak segments, only mappings, and
    those die with the views.
    """
    if descriptor.capacity == 0 or not descriptor.segment:
        return _heap_block(descriptor.k, 0)
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=descriptor.segment)
    buf = shm.buf
    # Detach the mapping from the wrapper: SharedMemory.__del__ would
    # otherwise unmap it the moment the (often temporary) wrapper dies,
    # leaving any retained views dangling (a segfault, not an exception).
    shm._buf = None
    shm._mmap = None
    fd = getattr(shm, "_fd", -1)
    if fd >= 0:  # close the fd now; the mmap stays valid without it
        os.close(fd)
        shm._fd = -1
    return _views_over(
        buf, descriptor.k, descriptor.capacity, descriptor.segment
    )


@contextmanager
def open_block(handle: BlockHandle) -> Iterator[TupleBlock]:
    """Resolve a job-payload handle into a usable block.

    A :class:`TupleBlock` handle (serial engine, heap backing) passes
    through untouched; a :class:`BlockDescriptor` is attached for the
    duration of the ``with`` body.  Exiting drops this frame's column
    references; the mapping is reclaimed when the last view dies.
    """
    if isinstance(handle, TupleBlock):
        yield handle
        return
    block = attach_block(handle)
    try:
        yield block
    finally:
        # Drop our column references eagerly.  Callers may legitimately
        # retain views — attach_block hands mapping ownership to the
        # arrays — so the mapping itself is refcount-reclaimed when the
        # last view dies.
        block.columns = None  # type: ignore[assignment]
        block._shm = None


# ----------------------------------------------------------------------
# pools
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BufferPoolStats:
    """Occupancy and lifetime accounting of one pool.

    ``in_use_*`` count currently allocated (not yet released) non-empty
    blocks; ``hwm_*`` are their high-water marks over the pool's life —
    the number the paper's §3.7 memory budget bounds.  ``allocated_*``
    are lifetime totals.  Segment counters are zero for heap pools.
    """

    kind: str
    in_use_blocks: int
    in_use_bytes: int
    hwm_blocks: int
    hwm_bytes: int
    allocated_blocks: int
    allocated_bytes: int
    segments_created: int = 0
    segments_reused: int = 0
    live_segments: int = 0


class BufferPool:
    """Allocator interface shared by both backings."""

    kind: str = "abstract"

    def __init__(self) -> None:
        self._in_use_blocks = 0
        self._in_use_bytes = 0
        self._hwm_blocks = 0
        self._hwm_bytes = 0
        self._allocated_blocks = 0
        self._allocated_bytes = 0

    # -- occupancy accounting (both backings route through these) ------
    def _note_allocate(self, block: TupleBlock) -> None:
        if block.capacity == 0:
            return
        nbytes = block.nbytes
        self._in_use_blocks += 1
        self._in_use_bytes += nbytes
        self._allocated_blocks += 1
        self._allocated_bytes += nbytes
        self._hwm_blocks = max(self._hwm_blocks, self._in_use_blocks)
        self._hwm_bytes = max(self._hwm_bytes, self._in_use_bytes)
        if telemetry.enabled():
            telemetry.add_counter("buffers.bytes_allocated", nbytes)
            telemetry.set_gauge(
                "buffers.pool_in_use_blocks", self._in_use_blocks
            )
            telemetry.set_gauge("buffers.pool_in_use_bytes", self._in_use_bytes)
            telemetry.set_gauge("buffers.pool_hwm_bytes", self._hwm_bytes)

    def _note_release(self, block: TupleBlock) -> None:
        if block.capacity == 0 or block.columns is None:  # empty or re-released
            return
        self._in_use_blocks = max(0, self._in_use_blocks - 1)
        self._in_use_bytes = max(0, self._in_use_bytes - block.nbytes)

    def stats(self) -> BufferPoolStats:
        """The pool's occupancy/high-water statistics — the public
        accessor telemetry gauges and tests read (no private state)."""
        return BufferPoolStats(
            kind=self.kind,
            in_use_blocks=self._in_use_blocks,
            in_use_bytes=self._in_use_bytes,
            hwm_blocks=self._hwm_blocks,
            hwm_bytes=self._hwm_bytes,
            allocated_blocks=self._allocated_blocks,
            allocated_bytes=self._allocated_bytes,
            segments_created=getattr(self, "segments_created", 0),
            segments_reused=getattr(self, "segments_reused", 0),
            live_segments=getattr(self, "live_segments", 0),
        )

    def allocate(self, k: int, capacity: int) -> TupleBlock:
        """A block for ``capacity`` tuples of ``k``-mers.  Contents are
        uninitialized; the caller's offset table covers every slot."""
        raise NotImplementedError

    def release(self, block: TupleBlock) -> None:
        """Return a block to the pool.  The block's views become invalid;
        shared segments go to the free list for reuse."""
        raise NotImplementedError

    def close(self) -> None:
        """Release every segment this pool ever created.  Idempotent;
        called from the pipeline's ``finally``."""

    def __enter__(self) -> "BufferPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class HeapBufferPool(BufferPool):
    """Plain in-process ndarray backing (the serial engine's dataplane)."""

    kind = "heap"

    def allocate(self, k: int, capacity: int) -> TupleBlock:
        block = _heap_block(k, capacity)
        self._note_allocate(block)
        return block

    def release(self, block: TupleBlock) -> None:
        self._note_release(block)
        block.columns = None  # type: ignore[assignment]


def _sweep_segments(segments: Dict[str, object]) -> None:
    """Unlink-and-close every segment; tolerant of partial teardown.

    Unlink comes first — it only needs the name and must succeed even
    when live numpy views prevent closing the mapping (``BufferError``).
    """
    for name, shm in list(segments.items()):
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        try:
            shm.close()
        except BufferError:
            # a view still aliases the mapping; the memory is reclaimed
            # when the view dies, and the name is already unlinked
            _LOG.debug("segment %s closed late (live views at sweep)", name)
        segments.pop(name, None)


class SharedMemoryBufferPool(BufferPool):
    """Pooling allocator over ``multiprocessing.shared_memory`` segments.

    Segments are sized to the next power of two and recycled through a
    size-keyed free list, so a multipass run touches the allocator once
    per (size class, concurrent block) rather than once per pass.  Every
    created segment is tracked until :meth:`close` unlinks it; an
    abandoned pool is swept by ``weakref.finalize`` at GC/interpreter
    exit, and a hard-killed process is covered by the resource tracker.
    """

    kind = "shared"

    #: smallest segment, so tiny blocks still pool by size class
    MIN_SEGMENT_BYTES = 4096

    def __init__(self) -> None:
        super().__init__()
        self._segments: Dict[str, object] = {}  # name -> SharedMemory (owned)
        self._free: Dict[int, List[str]] = {}  # size -> reusable names
        self._seq = 0
        self.segments_created = 0
        self.segments_reused = 0
        self._finalizer = weakref.finalize(self, _sweep_segments, self._segments)

    # ------------------------------------------------------------------
    @staticmethod
    def _size_class(nbytes: int) -> int:
        size = SharedMemoryBufferPool.MIN_SEGMENT_BYTES
        while size < nbytes:
            size <<= 1
        return size

    def _new_segment(self, size: int):
        from multiprocessing import shared_memory

        while True:
            name = f"{SEGMENT_PREFIX}-{os.getpid()}-{self._seq}"
            self._seq += 1
            try:
                shm = shared_memory.SharedMemory(name=name, create=True, size=size)
            except FileExistsError:
                continue  # stale name from an unrelated process; next seq
            self._segments[shm.name if hasattr(shm, "name") else name] = shm
            self.segments_created += 1
            return shm

    # ------------------------------------------------------------------
    def allocate(self, k: int, capacity: int) -> TupleBlock:
        if capacity == 0:
            return _heap_block(k, 0)
        size = self._size_class(block_nbytes(k, capacity))
        free = self._free.get(size)
        if free:
            name = free.pop()
            shm = self._segments[name]
            self.segments_reused += 1
        else:
            shm = self._new_segment(size)
        block = _views_over(shm.buf, k, capacity, shm.name, shm=shm)
        self._note_allocate(block)
        return block

    def release(self, block: TupleBlock) -> None:
        self._note_release(block)
        name = block.segment
        block.columns = None  # type: ignore[assignment]
        block._shm = None
        if not name or name not in self._segments:
            return
        size = self._segments[name].size
        self._free.setdefault(size, []).append(name)

    def close(self) -> None:
        self._free.clear()
        self._finalizer()  # runs _sweep_segments exactly once per pool life
        # re-arm for pools reused after close (tests); dict is empty now
        self._finalizer = weakref.finalize(self, _sweep_segments, self._segments)

    @property
    def live_segments(self) -> int:
        return len(self._segments)

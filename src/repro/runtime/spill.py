"""Out-of-core spill pipeline: TupleBlocks on disk between stage barriers.

The §3.7 pass planner bounds *per-pass* tuple volume, but in-memory
execution still keeps every owner task's :class:`~repro.runtime.buffers.
TupleBlock` resident for the whole pass — KmerGen writes all P
destination blocks, and they stay mapped until LocalCC finishes.  Tuple
volume per pass, not the configured budget, therefore caps dataset
size.  This module is the external-memory alternative (KMC-style
disk-partitioned binning): tuples land in per-owner *spill files*
instead of resident blocks, and each consumer re-attaches **one**
owner's data at a time.

Wire format
-----------
A spill file is exactly the PR-4 checkpoint block-spill format — the
``MPREPTAB`` container with schema :data:`TUPLEBLOCK_SCHEMA`, a JSON
header carrying ``k``, the length and whether the k-mer takes a second
limb, and the raw columnar payload (``lo``, ``ids``, and for k >= 32
``hi``).  A whole-block spill (:func:`write_spill`) and a region-filled
preallocated file (:func:`create_spill_file` + :func:`write_spill_region`)
produce byte-identical files, because :func:`repro.seqio.tables.table_layout`
makes every column's byte offset a pure function of ``(k, length)`` —
which is what lets KmerGen chunk workers address disjoint file regions
at their index-precomputed offsets with no coordination, the on-disk
twin of the zero-copy all-to-all.

Lifecycle
---------
:class:`SpillTarget` is the disk plane's block handle (the disk twin of
a shared-memory descriptor); :class:`~repro.runtime.transport.
DiskBlockTransport` drives it through the same stages as every other
plane, and this module holds every file operation behind those stages:

* *publish* — :func:`create_spill_file` preallocates the in-flight file
  ``<path>.tmp`` inside the plane's ``metaprep-spill-<pid>-...``
  directory (:func:`create_spill_dir`);
* *region writes* / *map_ids* — :func:`write_spill_region` and
  :func:`map_spill_ids` address the in-flight file at static offsets;
* *seal* — :func:`seal_spill` fsyncs it and renames it to ``<path>``,
  so a reader never observes a torn file under a final name;
* *resolve* — :func:`resident_spill` loads ``<path>`` into a private
  heap block, accounts the bytes in a per-thread residency ledger
  (telemetry gauges ``spill.blocks_resident`` /
  ``spill.tuple_bytes_resident``, max-merged per task) and deletes the
  file once its one consumer is done, so each owner job holds exactly
  one resident block — the bound ``tests/integration/test_out_of_core
  .py`` asserts against ``memory_budget_per_task``;
* *release* / *close* — :func:`consume_spill` and the directory sweep.
  Stale directories from hard-killed processes are reaped
  opportunistically (:func:`sweep_stale_spill_dirs`; the name embeds
  the creating pid).

Every open of a spill file routes through this module — an AST test
(``tests/test_public_api.py``) confines spill-path ``open()`` calls and
the tupleblock schema to it.  Corruption (truncated header or payload,
bad magic, version or schema skew) raises :class:`SpillCorruption`; a
partial block is never returned.
"""

from __future__ import annotations

import os
import shutil
import struct
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List

import numpy as np

from repro import telemetry
from repro.kmers.codec import ID_DTYPE, MAX_K_TWO_LIMB, limb_count, tuple_columns
from repro.kmers.engine import KmerTuples
from repro.runtime.buffers import BufferPool, HeapBufferPool, TupleBlock
from repro.seqio.tables import (
    BinaryTableError,
    read_table,
    table_layout,
    preallocate_table,
    write_table,
)
from repro.util.logging import get_logger
from repro.util.validation import check_in_range

_LOG = get_logger("runtime.spill")

#: recognized spill-mode names, in documentation order (``auto`` spills
#: a pass only when its in-memory residency exceeds the budget; see
#: :func:`repro.index.passplan.spill_schedule`)
SPILL_NAMES = ("auto", "never", "always")

#: schema tag of the block-spill container (PR 4 checkpoint format)
TUPLEBLOCK_SCHEMA = "metaprep/tupleblock"

#: spill directory name prefix; embeds the creating pid for stale sweep
SPILL_DIR_PREFIX = "metaprep-spill-"

#: published spill files end with this; in-flight files add ``.tmp``
SPILL_SUFFIX = ".spill"

#: on-disk column order — the low limb, the ids, then the high limb, as
#: the checkpoint block-spill writer has always emitted them
_FILE_COLUMN_ORDER = ("lo", "ids", "hi")


class SpillError(RuntimeError):
    """Base class for out-of-core spill failures."""


class SpillCorruption(SpillError):
    """A spill file is torn or inconsistent (truncated header or
    payload, bad magic, version/schema skew, self-contradictory
    metadata).  Readers never see a partial block — they see this."""


# ----------------------------------------------------------------------
# wire format layout
# ----------------------------------------------------------------------
def _block_meta(k: int, length: int) -> dict:
    # field set and types match the historical checkpoint writer exactly
    return {"k": int(k), "length": int(length), "two_limb": limb_count(k) > 1}


def _array_specs(k: int, length: int) -> list:
    """``(name, dtype, shape)`` of each column of :func:`tuple_columns`,
    in on-disk order."""
    dtypes = dict(tuple_columns(k))
    return [
        (name, dtypes[name], (length,))
        for name in _FILE_COLUMN_ORDER
        if name in dtypes
    ]


def _named_columns(tuples: KmerTuples) -> Dict[str, np.ndarray]:
    return {
        name: column
        for (name, _), column in zip(tuple_columns(tuples.k), tuples.columns)
    }


@dataclass(frozen=True)
class SpillLayout:
    """Byte layout of one spill file — pure function of ``(k, length)``.

    ``offsets`` maps each column name (``lo``, ``ids`` and, for k >= 32,
    ``hi``) to the file offset of its first data byte; ``file_bytes`` is
    the complete file size.
    """

    k: int
    length: int
    offsets: Dict[str, int]
    file_bytes: int

    @classmethod
    def for_block(cls, k: int, length: int) -> "SpillLayout":
        check_in_range("k", k, 1, MAX_K_TWO_LIMB)
        if length < 0:
            raise ValueError(f"length must be >= 0, got {length}")
        total, offsets = table_layout(
            TUPLEBLOCK_SCHEMA, _block_meta(k, length), _array_specs(k, length)
        )
        return cls(k=int(k), length=int(length), offsets=offsets, file_bytes=total)


@dataclass(frozen=True)
class SpillTarget:
    """Picklable handle to one disk-plane block — what executor job
    payloads carry instead of a :class:`~repro.runtime.buffers.
    BlockDescriptor`.  A few hundred bytes regardless of tuple volume,
    like its shared-memory twin.

    ``path`` names the sealed file; until :func:`seal_spill` the bytes
    live under :attr:`inflight`, so the handle itself never changes
    across the stage barrier.  ``owner`` is the owning task rank (the
    residency gauges of the consuming job are attributed to it).
    """

    path: str
    k: int
    capacity: int
    owner: int = -1

    @property
    def inflight(self) -> str:
        return self.path + ".tmp"

    def layout(self) -> SpillLayout:
        return SpillLayout.for_block(self.k, self.capacity)


# ----------------------------------------------------------------------
# whole-block spill / load (the checkpoint-format primitives)
# ----------------------------------------------------------------------
def write_spill(
    path: str | os.PathLike, block: TupleBlock, length: int | None = None
) -> None:
    """Spill a block's first ``length`` tuples to ``path``.

    Fsync'd temp-then-rename publish: the bytes are durable and complete
    under the final name or absent — never torn.  The written file is
    byte-identical to a preallocated-and-region-filled spill of the same
    tuples.
    """
    length = block.capacity if length is None else length
    columns = _named_columns(block.view(0, length))
    arrays = {name: columns[name] for name, _, _ in _array_specs(block.k, length)}
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    written = write_table(tmp, TUPLEBLOCK_SCHEMA, _block_meta(block.k, length), arrays)
    _fsync_path(tmp)
    os.replace(tmp, path)
    if telemetry.enabled():
        telemetry.add_counter("spill.bytes_written", int(written))


def read_spill(path: str | os.PathLike, pool: BufferPool) -> TupleBlock:
    """Load a spill file into a fresh block from ``pool``.

    The backing is the loader's choice — a spill written from a heap
    block restores into a shared segment and vice versa; only the bytes
    are contractual.  Raises :class:`SpillCorruption` for any malformed
    file; never returns a partial block.
    """
    try:
        meta, arrays = read_table(path, expect_schema=TUPLEBLOCK_SCHEMA)
    except FileNotFoundError:
        raise
    except (BinaryTableError, struct.error, KeyError, ValueError, TypeError) as exc:
        raise SpillCorruption(f"{path}: unreadable spill file: {exc}") from exc

    try:
        k, length = int(meta["k"]), int(meta["length"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SpillCorruption(f"{path}: incomplete spill metadata: {exc}") from exc
    if not (1 <= k <= MAX_K_TWO_LIMB) or length < 0:
        raise SpillCorruption(f"{path}: implausible spill metadata k={k}, length={length}")
    if meta != _block_meta(k, length):
        raise SpillCorruption(f"{path}: header {meta} contradicts k={k}")
    names = [name for name, _ in tuple_columns(k)]
    if sorted(arrays) != sorted(names) or any(
        array.shape != (length,) for array in arrays.values()
    ):
        raise SpillCorruption(
            f"{path}: column set/shape does not match header "
            f"(length {length}, columns {sorted(arrays)})"
        )

    block = pool.allocate(k, length)
    block.write(0, KmerTuples.from_columns(k, [arrays[name] for name in names]))
    if telemetry.enabled():
        telemetry.add_counter("spill.bytes_read", int(block.nbytes))
    return block


# ----------------------------------------------------------------------
# region-addressed writes (the out-of-core all-to-all)
# ----------------------------------------------------------------------
def create_spill_file(path: str | os.PathLike, k: int, length: int) -> SpillLayout:
    """Preallocate a spill file for ``length`` tuples (driver side).

    The header and array length prefixes are written up front; the
    payload is zero until region writers fill it.  Because the index
    tables predict every chunk's contribution before any k-mer is
    enumerated, the region writes tile the payload exactly — after the
    last one, the file equals a single-shot :func:`write_spill`.
    """
    layout = SpillLayout.for_block(k, length)
    preallocate_table(
        path, TUPLEBLOCK_SCHEMA, _block_meta(k, length), _array_specs(k, length)
    )
    return layout


def write_spill_region(
    target: SpillTarget, at: int, tuples: KmerTuples, task: int = -1
) -> int:
    """Write ``tuples`` into ``target``'s in-flight file at tuple ``at``.

    The out-of-core twin of :meth:`TupleBlock.write` — one positioned
    write per column at offsets derived from the static layout; writers
    of disjoint regions never contend.  The batch counts as resident
    (for ``task``) while it is being routed to disk.  Returns the end
    tuple position.
    """
    if tuples.k != target.k:
        raise ValueError(f"k mismatch: target {target.k}, tuples {tuples.k}")
    n = len(tuples)
    end = at + n
    if not (0 <= at and end <= target.capacity):
        raise ValueError(
            f"region [{at}, {end}) out of range for capacity {target.capacity}"
        )
    if n == 0:
        return end
    offsets = target.layout().offsets
    nbytes = 0
    note_resident(tuples.nbytes, 0, task=task)
    try:
        with open(target.inflight, "r+b") as fh:
            for name, column in _named_columns(tuples).items():
                raw = column.tobytes()
                fh.seek(offsets[name] + column.itemsize * at)
                fh.write(raw)
                nbytes += len(raw)
    finally:
        note_resident(-tuples.nbytes, 0, task=task)
    if telemetry.enabled():
        telemetry.add_counter("spill.bytes_written", nbytes)
    return end


def map_spill_ids(
    target: SpillTarget,
    lo: int,
    hi: int,
    fn: Callable[[np.ndarray], np.ndarray],
) -> None:
    """Apply ``fn`` to the in-flight ids column over tuples ``[lo, hi)``.

    LocalCC-Opt's id→component mapping, run out-of-core: only the 4-byte
    ids column of the region is ever resident, so the driver can rewrite
    arbitrarily large spill files one sender region at a time.
    """
    if not (0 <= lo <= hi <= target.capacity):
        raise ValueError(
            f"region [{lo}, {hi}) out of range for capacity {target.capacity}"
        )
    if hi == lo:
        return
    start = target.layout().offsets["ids"] + ID_DTYPE.itemsize * lo
    count = hi - lo
    with open(target.inflight, "r+b") as fh:
        fh.seek(start)
        raw = fh.read(ID_DTYPE.itemsize * count)
        if len(raw) != ID_DTYPE.itemsize * count:
            raise SpillCorruption(
                f"{target.inflight}: ids region [{lo}, {hi}) truncated"
            )
        ids = np.frombuffer(raw, dtype=ID_DTYPE).copy()
        mapped = np.asarray(fn(ids), dtype=ID_DTYPE)
        if mapped.shape != ids.shape:
            raise ValueError("ids mapping changed the region length")
        fh.seek(start)
        fh.write(mapped.tobytes())


def seal_spill(target: SpillTarget) -> None:
    """Fsync the in-flight file and rename it to ``target.path`` — the
    barrier between a stage's writers and its one consumer, who only
    ever sees a complete, durable file.  A sealed target stays sealed.
    """
    if os.path.exists(target.inflight):
        _fsync_path(target.inflight)
        os.replace(target.inflight, target.path)


def consume_spill(path: str | os.PathLike) -> None:
    """Delete a spill file after its one consumer is done (idempotent)."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass


# ----------------------------------------------------------------------
# residency ledger
# ----------------------------------------------------------------------
_RESIDENT = threading.local()


def _resident_state() -> dict:
    state = getattr(_RESIDENT, "state", None)
    if state is None:
        state = {"blocks": 0, "bytes": 0}
        _RESIDENT.state = state
    return state


def note_resident(nbytes: int, blocks: int, task: int = -1) -> None:
    """Adjust the residency ledger and sample the telemetry gauges.

    Gauges are max-merged per task, so the merged record's maximum *is*
    the high-water mark the memory-bound tests assert against."""
    state = _resident_state()
    state["bytes"] = max(0, state["bytes"] + int(nbytes))
    state["blocks"] = max(0, state["blocks"] + int(blocks))
    if telemetry.enabled():
        telemetry.set_gauge("spill.tuple_bytes_resident", state["bytes"], task=task)
        telemetry.set_gauge("spill.blocks_resident", state["blocks"], task=task)


@contextmanager
def resident_spill(
    target: SpillTarget, consume: bool = False
) -> Iterator[TupleBlock]:
    """Map one sealed block into memory for the duration of the body.

    The lazy re-attachment primitive of the residency protocol: loads
    ``target`` into a private heap block, accounts it in the residency
    ledger (for ``target.owner``), and on exit releases the block —
    and, with ``consume=True``, deletes the file (each spill file has
    exactly one consumer).  Stage code holds at most one resident block
    per owner at a time by construction.
    """
    with HeapBufferPool() as pool:
        block = read_spill(target.path, pool)
        note_resident(block.nbytes, 1, task=target.owner)
        try:
            yield block
        finally:
            note_resident(-block.nbytes, -1, task=target.owner)
            pool.release(block)
            if consume:
                consume_spill(target.path)


# ----------------------------------------------------------------------
# spill directory lifecycle
# ----------------------------------------------------------------------
def _fsync_path(path: str | os.PathLike) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def create_spill_dir(root: str | os.PathLike | None = None) -> Path:
    """A fresh private spill directory under ``root`` (the system temp
    dir by default), after reaping any stale ones found there.  An
    unusable ``root`` (a regular file, no permission, full disk) is a
    :class:`SpillError` naming the path."""
    base = Path(root) if root is not None else Path(tempfile.gettempdir())
    try:
        base.mkdir(parents=True, exist_ok=True)
        sweep_stale_spill_dirs(base)
        return Path(
            tempfile.mkdtemp(
                prefix=f"{SPILL_DIR_PREFIX}{os.getpid()}-", dir=base
            )
        )
    except OSError as exc:
        raise SpillError(
            f"cannot create a spill directory under {base}: {exc}"
        ) from exc


def sweep_spill_dir(directory: str | os.PathLike) -> None:
    """Remove a spill directory and everything in it (idempotent)."""
    shutil.rmtree(directory, ignore_errors=True)


def sweep_stale_spill_dirs(root: str | os.PathLike) -> List[Path]:
    """Remove spill directories left behind by dead processes.

    A spill directory's name embeds its creating pid; if that pid no
    longer runs, nothing will ever sweep the directory — the out-of-core
    analogue of the resource tracker's /dev/shm cleanup.  Unparseable
    names and live pids are left alone.  Returns the removed paths.
    """
    root = Path(root)
    removed: List[Path] = []
    if not root.is_dir():
        return removed
    for entry in root.glob(f"{SPILL_DIR_PREFIX}*"):
        if not entry.is_dir():
            continue
        tag = entry.name[len(SPILL_DIR_PREFIX):]
        pid_text = tag.split("-", 1)[0]
        if not pid_text.isdigit():
            continue
        pid = int(pid_text)
        if pid == os.getpid() or _pid_alive(pid):
            continue
        sweep_spill_dir(entry)
        removed.append(entry)
    if removed:
        _LOG.info("swept %d stale spill dir(s) under %s", len(removed), root)
    return removed


def _pid_alive(pid: int) -> bool:
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - someone else's live pid
        return True
    return True

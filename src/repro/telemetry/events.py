"""Telemetry wire format: fixed-size binary event records in spool files.

Workers on the hot path must be able to emit an event with one
``write()`` and no locks, and a crashed worker must leave nothing worse
than a truncated tail.  Both follow from the record being a fixed-size
binary struct appended to a per-(process, thread) spool file:

* every record is exactly :data:`RECORD` ``.size`` bytes (28), so the
  merger can recover every complete record by offset arithmetic and
  drop a partial tail without a resync scan;
* each record is written with a single unbuffered ``write()`` on an
  append-mode file no other writer shares, so no locking is needed and
  records never interleave;
* no strings travel on the wire — event names come from the static
  :data:`WELL_KNOWN_NAMES` registry and are encoded as 16-bit ids, which
  is what keeps the record fixed-size in the first place.

A spool file is ``HEADER`` (magic + version) followed by zero or more
records::

    <HHiiqq = kind:u16  name_id:u16  task:i32  aux:i32  a:i64  b:i64

``kind`` selects the payload interpretation: a :data:`KIND_SPAN` carries
monotonic nanosecond timestamps ``(t0_ns, t1_ns)`` in ``(a, b)``; a
:data:`KIND_COUNTER` carries a delta in ``a``; a :data:`KIND_GAUGE`
carries a sampled value in ``a`` (merged by max — the high-water
interpretation).  ``task`` is the owning MPI-rank analogue (``-1`` for
driver-side events) and ``aux`` is a per-name discriminator (chunk id,
pass index, destination task...).
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import List, Tuple

from repro.runtime.work import StepNames

MAGIC = b"MPTL"
VERSION = 1

HEADER = struct.Struct("<4sHH")  # magic, version, reserved
RECORD = struct.Struct("<HHiiqq")  # kind, name_id, task, aux, a, b

KIND_SPAN = 1
KIND_COUNTER = 2
KIND_GAUGE = 3

#: counter names wired through the hot paths (driver and workers)
COUNTER_NAMES = (
    "kmergen.tuples_routed",
    "comm.bytes_moved",
    "comm.wire_bytes",
    "buffers.bytes_allocated",
    "sort.radix_passes",
    "sort.histogram_fills",
    "cc.unions",
    "cc.find_steps",
    "cc.retries",
    "store.hits",
    "store.misses",
    "spill.bytes_written",
    "spill.bytes_read",
)

#: gauge names (merged by max: high-water marks)
GAUGE_NAMES = (
    "buffers.pool_in_use_blocks",
    "buffers.pool_in_use_bytes",
    "buffers.pool_hwm_bytes",
    "service.queue_depth",
    "spill.blocks_resident",
    "spill.tuple_bytes_resident",
    "proc.peak_rss_kb",
)

#: network counters of the distributed engine's block plane
#: (:mod:`repro.runtime.transport`).  A separate tuple appended *after*
#: the original names: splicing them into COUNTER_NAMES would shift
#: every gauge's positional id and break existing spool files.
NET_COUNTER_NAMES = (
    "net.bytes_sent",
    "net.bytes_recv",
    "net.frames",
    "worker.connects",
)

#: HTTP gateway counters and the per-request span name
#: (:mod:`repro.gateway`).  Appended after every earlier tuple for the
#: same reason NET_COUNTER_NAMES was.
GATEWAY_NAMES = (
    "gateway.requests",
    "gateway.bytes_streamed",
    "gateway.coalesced",
    "gateway.rejected",
    "gateway.request",
)

#: span names of the two IndexCreate sub-steps of paper Table 5
#: (:mod:`repro.index.create`), on the driver row of a run that builds
#: its own index.  Appended last, for the same reason.
INDEX_STEP_NAMES = (
    "IndexCreate-FASTQPart",
    "IndexCreate-merHist",
)

#: the static name registry; ids are positions in this tuple, so the
#: order is part of the wire format — append, never reorder
WELL_KNOWN_NAMES: Tuple[str, ...] = (
    tuple(StepNames.ORDER)
    + COUNTER_NAMES
    + GAUGE_NAMES
    + NET_COUNTER_NAMES
    + GATEWAY_NAMES
    + INDEX_STEP_NAMES
)

_NAME_TO_ID = {name: i for i, name in enumerate(WELL_KNOWN_NAMES)}


def name_id(name: str) -> int:
    """Registry id of ``name``; unknown names are a programming error
    (register them in :data:`WELL_KNOWN_NAMES`), not a runtime fallback."""
    try:
        return _NAME_TO_ID[name]
    except KeyError:
        raise ValueError(
            f"unregistered telemetry name {name!r}; add it to "
            "repro.telemetry.events.WELL_KNOWN_NAMES"
        ) from None


@dataclass(frozen=True)
class EventRecord:
    """One decoded spool record."""

    kind: int
    name: str
    task: int
    aux: int
    value_a: int
    value_b: int


class SpoolWriter:
    """Append-only record writer over one spool file.

    The file is opened unbuffered in append mode; each :meth:`write` is
    one ``os.write`` of one complete record.  The header is emitted only
    when the file is empty, so reopening (e.g. after a fork guard
    re-path) never corrupts an existing spool.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = str(path)
        self._fh = open(self.path, "ab", buffering=0)
        if self._fh.tell() == 0:
            self._fh.write(HEADER.pack(MAGIC, VERSION, 0))

    def write(
        self,
        kind: int,
        name: str,
        task: int = -1,
        aux: int = -1,
        value_a: int = 0,
        value_b: int = 0,
    ) -> None:
        self._fh.write(
            RECORD.pack(kind, name_id(name), task, aux, value_a, value_b)
        )

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


def read_spool(
    path: str | os.PathLike, offset: int = 0
) -> Tuple[List[EventRecord], int]:
    """Decode complete records from ``path`` starting at byte ``offset``.

    ``offset == 0`` means "start of file": the header is validated and
    skipped.  Returns the decoded records and the offset of the first
    undecoded byte — pass it back in for incremental merges.  A partial
    tail record (a writer died mid-``write``, which unbuffered appends
    make all but impossible, or is still running) is left for the next
    call; it never corrupts the records before it.
    """
    with open(path, "rb") as fh:
        if offset == 0:
            head = fh.read(HEADER.size)
            if len(head) < HEADER.size:
                return [], 0  # header not yet complete
            magic, version, _ = HEADER.unpack(head)
            if magic != MAGIC:
                raise ValueError(f"{path}: not a telemetry spool file")
            if version != VERSION:
                raise ValueError(
                    f"{path}: spool version {version}, expected {VERSION}"
                )
            offset = HEADER.size
        else:
            fh.seek(offset)
        data = fh.read()

    n_complete = len(data) // RECORD.size
    records: List[EventRecord] = []
    for i in range(n_complete):
        kind, nid, task, aux, a, b = RECORD.unpack_from(data, i * RECORD.size)
        if nid >= len(WELL_KNOWN_NAMES):
            raise ValueError(
                f"{path}: record {i} carries unknown name id {nid}"
            )
        records.append(
            EventRecord(
                kind=kind,
                name=WELL_KNOWN_NAMES[nid],
                task=task,
                aux=aux,
                value_a=a,
                value_b=b,
            )
        )
    return records, offset + n_complete * RECORD.size

"""Vectorized canonical k-mer enumeration (the KmerGen inner kernel).

The paper's SIMD kernel (section 3.2.1) keeps four k-mers in flight in
128-bit registers and advances them one base per step.  The NumPy analogue
keeps *every* k-mer of a read chunk in flight: a ``k``-iteration shift loop
over the chunk's concatenated code array builds all forward k-mers and all
reverse complements as whole-array operations, then canonicalizes with an
elementwise minimum.  Per-element work is identical; the "vector width" is
the chunk length instead of 4.

Windows that cross a read boundary or contain an ``N`` are masked out
(section 3.2: "We do not enumerate k-mers that contain the N symbol").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.kmers.codec import MAX_K_TWO_LIMB, KmerArray, limb_count, tuple_bytes
from repro.seqio.records import ReadBatch
from repro.util.validation import check_in_range

_U64 = np.uint64
_TWO = _U64(2)
_THREE = _U64(3)
_SIXTYTWO = _U64(62)


@dataclass
class KmerTuples:
    """A flat array of (canonical k-mer, read id) tuples.

    ``read_ids`` are 32-bit, as in the paper (12-byte tuples for k <= 31,
    20-byte for k <= 63).  During the LocalCC-Opt multipass optimization the
    id column holds *component* ids instead of read ids; the layout is
    unchanged.
    """

    kmers: KmerArray
    read_ids: np.ndarray

    def __post_init__(self) -> None:
        self.read_ids = np.ascontiguousarray(self.read_ids, dtype=np.uint32)
        if len(self.read_ids) != len(self.kmers):
            raise ValueError(
                f"tuple column length mismatch: {len(self.kmers)} k-mers vs "
                f"{len(self.read_ids)} ids"
            )

    def __len__(self) -> int:
        return len(self.read_ids)

    @property
    def k(self) -> int:
        return self.kmers.k

    @property
    def nbytes(self) -> int:
        """Logical tuple bytes (12 or 20 per tuple), as the paper accounts."""
        return tuple_bytes(self.k) * len(self)

    @property
    def columns(self) -> tuple:
        """The k-mer limbs, most significant first, then the read ids —
        the column order of :func:`repro.kmers.codec.tuple_columns`."""
        return self.kmers.limbs + (self.read_ids,)

    @staticmethod
    def from_columns(k: int, columns) -> "KmerTuples":
        """Inverse of :attr:`columns`."""
        *limbs, ids = columns
        return KmerTuples(KmerArray(k, limbs), ids)

    def take(self, indices: np.ndarray) -> "KmerTuples":
        return KmerTuples(self.kmers.take(indices), self.read_ids[indices])

    def slice(self, lo: int, hi: int) -> "KmerTuples":
        return KmerTuples(self.kmers.slice(lo, hi), self.read_ids[lo:hi])

    def split_by_destination(
        self, dest: np.ndarray, n_dest: int
    ) -> "tuple[List[KmerTuples], np.ndarray]":
        """Group tuples by destination task, preserving scan order.

        ``dest[i]`` is the owner task of tuple ``i``.  Returns
        ``(parts, counts)`` where ``parts[d]`` holds the tuples bound for
        ``d`` in their original relative order (the grouping is stable —
        the property the deterministic exchange layout rests on) and
        ``counts[d] == len(parts[d])``.
        """
        counts = np.bincount(dest, minlength=n_dest).astype(np.int64)
        if len(counts) > n_dest:
            raise ValueError(
                f"dest contains values >= n_dest ({n_dest})"
            )
        order = np.argsort(dest, kind="stable")
        gathered = self.take(order)
        parts: "List[KmerTuples]" = []
        start = 0
        for d in range(n_dest):
            end = start + int(counts[d])
            parts.append(gathered.slice(start, end))
            start = end
        return parts, counts

    @staticmethod
    def concatenate(parts: "List[KmerTuples]") -> "KmerTuples":
        parts = [p for p in parts if len(p) > 0]
        if not parts:
            raise ValueError("cannot concatenate zero non-empty KmerTuples")
        kmers = KmerArray.concatenate([p.kmers for p in parts])
        ids = np.concatenate([p.read_ids for p in parts])
        return KmerTuples(kmers, ids)

    @staticmethod
    def empty(k: int) -> "KmerTuples":
        return KmerTuples(KmerArray.empty(k), np.empty(0, dtype=np.uint32))


def _shift_in(codes: np.ndarray, starts, n_limbs: int, npos: int) -> tuple:
    """Shift the 2-bit codes ``codes[j : j + npos]``, for each ``j`` of
    ``starts`` in turn, into ``n_limbs`` limbs, most significant first,
    carrying each limb's top base into the limb above.  Starting from
    zero, ``k`` steps set exactly the low ``2k`` bits, so the top limb of
    a 32-mer stays 0 without a mask."""
    limbs = [np.zeros(npos, dtype=np.uint64) for _ in range(n_limbs)]
    for j in starts:
        for i in range(n_limbs - 1):
            limbs[i] = (limbs[i] << _TWO) | (limbs[i + 1] >> _SIXTYTWO)
        limbs[-1] = (limbs[-1] << _TWO) | codes[j : j + npos]
    return tuple(limbs)


def enumerate_canonical_kmers(batch: ReadBatch, k: int) -> KmerTuples:
    """Enumerate all canonical k-mers of ``batch`` with their read ids.

    Output order is deterministic: reads in batch order, positions left to
    right within each read — the same order a sequential scan would produce.
    """
    check_in_range("k", k, 1, MAX_K_TWO_LIMB)
    codes = batch.codes
    n_bases = len(codes)
    npos = n_bases - k + 1
    if batch.n_reads == 0 or npos <= 0:
        return KmerTuples.empty(k)

    # Which read does each base belong to?
    base_read = np.repeat(
        np.arange(batch.n_reads, dtype=np.int64), batch.lengths
    )
    # Window validity: stays within one read, and contains no invalid code.
    within_read = base_read[:npos] == base_read[k - 1 :]
    bad = np.zeros(n_bases + 1, dtype=np.int64)
    np.cumsum(codes > 3, out=bad[1:])
    clean = (bad[k:] - bad[:npos]) == 0
    valid = within_read & clean

    # 2-bit codes (an N's window is masked out by ``valid`` anyway) and
    # their complements, which the reverse strand reads back to front
    c64 = codes.astype(np.uint64) & _THREE
    n_limbs = limb_count(k)
    fwd = _shift_in(c64, range(k), n_limbs, npos)
    rc = _shift_in(_THREE - c64, range(k - 1, -1, -1), n_limbs, npos)
    canon = KmerArray(k, fwd).minimum(KmerArray(k, rc))
    keep = np.flatnonzero(valid)
    kmers = canon.take(keep)
    read_ids = batch.read_ids[base_read[keep]].astype(np.uint32)
    return KmerTuples(kmers, read_ids)


def count_kmer_positions(batch: ReadBatch, k: int) -> int:
    """Number of canonical k-mers :func:`enumerate_canonical_kmers` would
    emit, without materializing them (used for capacity planning tests)."""
    if batch.n_reads == 0:
        return 0
    total = 0
    codes = batch.codes
    for i in range(batch.n_reads):
        lo, hi = int(batch.offsets[i]), int(batch.offsets[i + 1])
        length = hi - lo
        if length < k:
            continue
        invalid = codes[lo:hi] > 3
        if not invalid.any():
            total += length - k + 1
            continue
        bad = np.concatenate(([0], np.cumsum(invalid)))
        windows = bad[k:] - bad[: length - k + 1]
        total += int((windows == 0).sum())
    return total

"""Vectorized canonical k-mer enumeration (the KmerGen inner kernel).

The paper's SIMD kernel (section 3.2.1) keeps four k-mers in flight in
128-bit registers and advances them one base per step.  The NumPy analogue
takes a whole read chunk at once and goes prefix first, because a KmerGen
pass keeps only ~1/S of a chunk's k-mers: :func:`valid_windows` masks the
windows that cross a read or contain an ``N`` (section 3.2: "We do not
enumerate k-mers that contain the N symbol"); :class:`DoublingTables`
packs the 1-, 2-, 4-, ...-mer at every start of both strands; every
window's canonical m-mer prefix is read from table slices; and only the
windows a pass keeps get a full k-mer, ``popcount(k)`` gathered pieces per
strand (27 = 16 + 8 + 2 + 1) — O(log k) per k-mer, not the O(k) of a
one-base-per-step shift loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.kmers.codec import MAX_K_TWO_LIMB, KmerArray, tuple_bytes
from repro.seqio.records import ReadBatch
from repro.util.validation import check_in_range


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
        # the narrowest unsigned key (uint8 for up to 256 tasks) puts the
        # stable argsort on NumPy's radix path
        key = dest.astype(np.min_scalar_type(n_dest - 1), copy=False)
        gathered = self.take(np.argsort(key, kind="stable"))
        ends = np.cumsum(counts).tolist()
        parts = [gathered.slice(a, b) for a, b in zip([0] + ends[:-1], ends)]
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


def _pieces(length: int) -> List[Tuple[int, int]]:
    """``(offset, size)`` of the power-of-two pieces that tile a window of
    ``length`` bases, largest first: 27 -> (0, 16), (16, 8), (24, 2), (26, 1)."""
    bits = reversed(range(length.bit_length()))
    return [((length >> b + 1) << b + 1, 1 << b) for b in bits if length >> b & 1]


def _mer_dtype(length: int) -> np.dtype:
    """The narrowest unsigned dtype that holds a packed ``length``-mer."""
    return np.min_scalar_type((1 << 2 * length) - 1)


def valid_windows(batch: ReadBatch, k: int) -> np.ndarray:
    """True at each flat start ``j`` whose window ``codes[j : j + k]``
    lies in one read and holds no ``N``: its last base is no ``N``, and
    none of the others is an ``N`` or a read's last base — the OR of
    ``popcount(k - 1)`` slices of a doubling table of such stops."""
    codes = batch.codes
    npos = len(codes) - k + 1
    if npos <= 0:
        return np.zeros(0, dtype=bool)
    stops = codes > 3
    ends = batch.offsets[1:] - 1
    stops[ends[ends >= 0]] = True
    levels = [stops]  # levels[i][j]: a stop in stops[j : j + 2**i]
    for i in range((k - 1).bit_length() - 1):
        levels.append(levels[i][: -(1 << i)] | levels[i][1 << i :])
    valid = codes[k - 1 :] <= 3
    for o, size in _pieces(k - 1):
        valid &= ~levels[size.bit_length() - 1][o : o + npos]
    return valid


class DoublingTables:
    """The packed L-mer at every start of a code array, both strands, for
    L = 1, 2, 4, ... up to ``max_len``.

    ``fwd[i][j]`` packs ``codes[j : j + 2**i]`` and ``rc[i][j]`` its
    reverse complement, in the narrowest unsigned dtype that holds it.
    Each level is two slices of the one below: an L-mer then the next is
    a 2L-mer, whose reverse complement is the second's then the first's.
    Entries whose window holds an ``N`` are meaningless; callers mask them.
    """

    def __init__(self, codes: np.ndarray, max_len: int) -> None:
        fwd = codes & np.uint8(3)
        self.fwd, self.rc = [fwd], [fwd ^ np.uint8(3)]
        for size in (1 << i for i in range(max_len.bit_length() - 1)):
            dtype = _mer_dtype(2 * size)
            f, r = (t[-1].astype(dtype, copy=False) for t in (self.fwd, self.rc))
            # a shift by 2 * size bits, as a multiply: NumPy vectorizes
            # that for uint8, where its shift is ~10x slower
            n, shift = max(len(f) - size, 0), dtype.type(4**size)
            self.fwd.append((f[:n] * shift) | f[size:])
            self.rc.append((r[size:] * shift) | r[:n])

    def mers(self, length: int, offset: int, npos: int, reverse: bool) -> np.ndarray:
        """The packed ``length``-mers at ``offset + j`` for every ``j <
        npos``, reverse-complemented when ``reverse``, from contiguous
        slices of the tables."""
        dtype = _mer_dtype(length)
        out = np.zeros(npos, dtype)
        for o, size in _pieces(length):
            piece = (self.rc if reverse else self.fwd)[size.bit_length() - 1][offset + o :][:npos]
            if reverse:  # the window's first bases end its reverse complement
                out |= piece.astype(dtype) << dtype.type(2 * o)
            else:
                out <<= dtype.type(2 * size)
                out |= piece
        return out

    def canonical_prefixes(self, k: int, m: int, npos: int) -> np.ndarray:
        """The canonical k-mer's m-mer prefix at every start ``j < npos``:
        min(forward m-mer at ``j``, reverse complement of the m-mer at
        ``j + k - m``).  The smaller decides which strand is canonical;
        on a tie both strands carry it."""
        return np.minimum(
            self.mers(m, 0, npos, reverse=False),
            self.mers(m, k - m, npos, reverse=True),
        )

    def tuples_at(self, batch: ReadBatch, k: int, starts: np.ndarray) -> KmerTuples:
        """(canonical k-mer, read id) of the windows at ``starts``: per
        strand, ``popcount(k)`` gathered pieces folded into limbs, then
        the minimum of the two strands."""
        if len(starts) == 0:
            return KmerTuples.empty(k)
        fwd, rc = [], []
        for o, size in _pieces(k):
            level = size.bit_length() - 1
            fwd.append((self.fwd[level][o:][starts], k - o - size, size))
            rc.append((self.rc[level][o:][starts], o, size))
        kmers = KmerArray.from_pieces(k, fwd).minimum(KmerArray.from_pieces(k, rc))
        return KmerTuples(kmers, np.repeat(batch.read_ids, batch.lengths)[starts])


def enumerate_canonical_kmers(batch: ReadBatch, k: int) -> KmerTuples:
    """Enumerate all canonical k-mers of ``batch`` with their read ids.

    Output order is deterministic: reads in batch order, positions left to
    right within each read — the same order a sequential scan would produce.
    """
    check_in_range("k", k, 1, MAX_K_TWO_LIMB)
    starts = np.flatnonzero(valid_windows(batch, k))
    return DoublingTables(batch.codes, k).tuples_at(batch, k, starts)


def select_canonical_kmers(
    batch: ReadBatch, k: int, m: int, bin_lo: int, bin_hi: int
) -> Tuple[KmerTuples, np.ndarray, int]:
    """One KmerGen pass: the canonical k-mers of ``batch`` whose m-mer
    prefix bin lies in ``[bin_lo, bin_hi)``, in scan order, their bins, and
    the valid windows scanned before that filter (the work the projection
    charges).  Only the kept windows get a full k-mer."""
    check_in_range("k", k, 1, MAX_K_TWO_LIMB)
    check_in_range("m", m, 1, min(k, 32))
    valid = valid_windows(batch, k)
    tables = DoublingTables(batch.codes, k)
    bins = tables.canonical_prefixes(k, m, len(valid))
    starts = np.flatnonzero(valid & (bins >= bin_lo) & (bins < bin_hi))
    return tables.tuples_at(batch, k, starts), bins[starts], int(np.count_nonzero(valid))

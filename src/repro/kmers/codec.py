"""Packed k-mer representation.

A k-mer is a ``2k``-bit unsigned integer, two bits per base, most significant
bits first (so integer order == lexicographic order over ACGT).  It is held
as L ``uint64`` *limbs*, most significant first.  L is 1 for ``k <= 31`` —
a 12-byte tuple (8-byte k-mer + 4-byte read id), exactly the paper's layout
— and 2 for ``32 <= k <= 63``, the paper's 128-bit k-mer / 20-byte tuple
variant (section 4.4, Table 6).  L is deliberately not ``ceil(2k / 64)``:
k = 32 takes two limbs with an empty top limb, so its tuples stay 20 bytes.

:func:`limb_count` is the only place that turns ``k`` into L, and
:func:`tuple_columns` the only place that turns it into a tuple layout (the
limbs, then the read ids; :func:`tuple_bytes` is its byte count).
:class:`KmerArray` is the vector type flowing through the pipeline: a tuple
of parallel limb arrays whose kernels loop over the limbs, so every width
runs the same code.  :class:`KmerCodec` carries the scalar string
conversions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence, Tuple

import numpy as np

from repro.seqio.alphabet import BASES, encode_sequence
from repro.util.validation import check_in_range

MAX_K_ONE_LIMB = 31
MAX_K_TWO_LIMB = 63

LIMB_BITS = 64
LIMB_DTYPE = np.dtype(np.uint64)
ID_DTYPE = np.dtype(np.uint32)

_U64 = np.uint64
_LIMB_MASK = (1 << LIMB_BITS) - 1


def limb_count(k: int) -> int:
    """Limbs per k-mer: 1 for ``k <= 31``, 2 for ``32 <= k <= 63``."""
    check_in_range("k", k, 1, MAX_K_TWO_LIMB)
    return 1 if k <= MAX_K_ONE_LIMB else 2


def tuple_columns(k: int) -> Tuple[Tuple[str, np.dtype], ...]:
    """``(name, dtype)`` of each column of a (k-mer, read id) tuple batch:
    the limbs, most significant first, then the ids.  The names are the
    ones the tuple-block spill format has always used."""
    limbs = (("hi", LIMB_DTYPE), ("lo", LIMB_DTYPE))[-limb_count(k):]
    return limbs + (("ids", ID_DTYPE),)


def tuple_bytes(k: int) -> int:
    """Bytes per (k-mer, read id) tuple: 12 for k <= 31, 20 for k <= 63."""
    return sum(dtype.itemsize for _, dtype in tuple_columns(k))


class KmerArray:
    """A vector of packed k-mers: ``limbs`` is a tuple of parallel
    ``uint64`` arrays, most significant first.

    Immutable by convention: operations return new arrays.
    """

    __slots__ = ("k", "limbs")

    def __init__(self, k: int, limbs: "np.ndarray | Sequence[np.ndarray]"):
        n_limbs = limb_count(k)
        if isinstance(limbs, np.ndarray):  # a one-limb array passed bare
            limbs = (limbs,)
        limbs = tuple(np.ascontiguousarray(x, dtype=LIMB_DTYPE) for x in limbs)
        if len(limbs) != n_limbs:
            raise ValueError(f"k={k} takes {n_limbs} limb(s), got {len(limbs)}")
        if any(x.shape != limbs[0].shape for x in limbs):
            raise ValueError("limb shape mismatch")
        self.k = int(k)
        self.limbs = limbs

    # ------------------------------------------------------------------
    @property
    def lo(self) -> np.ndarray:
        """The least significant limb (the whole k-mer when k <= 31)."""
        return self.limbs[-1]

    @property
    def hi(self) -> "np.ndarray | None":
        """The upper limb when k >= 32, else ``None``."""
        return self.limbs[0] if len(self.limbs) > 1 else None

    @property
    def total_bits(self) -> int:
        return 2 * self.k

    def __len__(self) -> int:
        return len(self.limbs[0])

    def _with(self, limbs) -> "KmerArray":
        return KmerArray(self.k, tuple(limbs))

    # ------------------------------------------------------------------
    # elementwise relational operators (lexicographic = numeric on packed)
    # ------------------------------------------------------------------
    def _compare(self, other: "KmerArray", strict: bool) -> np.ndarray:
        """``self < other`` (``strict``) or ``self <= other``, folding
        from the least significant limb upward."""
        self._check_compatible(other)
        a, b = self.limbs[-1], other.limbs[-1]
        result = a < b if strict else a <= b
        for a, b in zip(self.limbs[-2::-1], other.limbs[-2::-1]):
            result = (a < b) | ((a == b) & result)
        return result

    def less_than(self, other: "KmerArray") -> np.ndarray:
        return self._compare(other, strict=True)

    def equals(self, other: "KmerArray") -> np.ndarray:
        self._check_compatible(other)
        return reduce(
            np.logical_and, (a == b for a, b in zip(self.limbs, other.limbs))
        )

    def minimum(self, other: "KmerArray") -> "KmerArray":
        """Elementwise lexicographic minimum (canonicalization kernel)."""
        take_self = self._compare(other, strict=False)
        return self._with(
            np.where(take_self, a, b) for a, b in zip(self.limbs, other.limbs)
        )

    def _check_compatible(self, other: "KmerArray") -> None:
        if self.k != other.k:
            raise ValueError(f"k mismatch: {self.k} vs {other.k}")
        if len(self) != len(other):
            raise ValueError("length mismatch")

    # ------------------------------------------------------------------
    # bit extraction
    # ------------------------------------------------------------------
    def high_bits(self, nbits: int) -> np.ndarray:
        """Extract the ``nbits`` most significant bits of each k-mer.

        This is the m-mer prefix used by merHist binning: an m-mer prefix is
        ``high_bits(2 * m)``.  Result fits in ``uint64`` (``nbits <= 64``).
        """
        check_in_range("nbits", nbits, 1, min(LIMB_BITS, self.total_bits))
        limb, shift = divmod(self.total_bits - nbits, LIMB_BITS)
        out = self.limbs[-1 - limb] >> _U64(shift)
        if shift and limb + 1 < len(self.limbs):
            # the bits straddle two limbs; shifting by 64 - 0 would wrap
            # to a no-op on x86, hence the ``shift`` guard
            upper = self.limbs[-2 - limb] << _U64(LIMB_BITS - shift)
            out = (out | upper) & _U64((1 << nbits) - 1)
        return out

    def mmer_prefix(self, m: int) -> np.ndarray:
        """The m-mer prefix (first ``m`` bases) of each k-mer as ``uint64``."""
        check_in_range("m", m, 1, min(32, self.k))
        return self.high_bits(2 * m)

    def radix_digit(self, index: int, bits: int = 8) -> np.ndarray:
        """The ``index``-th least significant ``bits``-wide digit as
        ``uint64`` (``bits`` divides 64).

        The LSD radix sort reads ``64 * L / bits`` digits: with bytes, 8
        passes for one limb and 16 for two (paper sections 3.4 and 4.4).
        """
        per_limb = LIMB_BITS // bits
        check_in_range("index", index, 0, per_limb * len(self.limbs) - 1)
        limb, digit = divmod(index, per_limb)
        return (self.limbs[-1 - limb] >> _U64(bits * digit)) & _U64(
            (1 << bits) - 1
        )

    # ------------------------------------------------------------------
    # gather / concat
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "KmerArray":
        return self._with(x[indices] for x in self.limbs)

    def slice(self, lo_idx: int, hi_idx: int) -> "KmerArray":
        return self._with(x[lo_idx:hi_idx] for x in self.limbs)

    @staticmethod
    def concatenate(parts: "list[KmerArray]") -> "KmerArray":
        if not parts:
            raise ValueError("cannot concatenate zero KmerArrays")
        k = parts[0].k
        if any(p.k != k for p in parts):
            raise ValueError("k mismatch in concatenate")
        return KmerArray(
            k, tuple(np.concatenate(c) for c in zip(*(p.limbs for p in parts)))
        )

    @staticmethod
    def empty(k: int) -> "KmerArray":
        return KmerArray(
            k, tuple(np.empty(0, LIMB_DTYPE) for _ in range(limb_count(k)))
        )

    @staticmethod
    def from_pieces(k: int, pieces: Sequence[tuple]) -> "KmerArray":
        """Assemble k-mers from packed pieces that tile them: each is
        ``(values, at, size)``, ``size`` bases (at most 32) whose last base
        lies ``at`` bases before the k-mer's last, i.e. at bit ``2 * at``."""
        limbs = [np.zeros(len(pieces[0][0]), LIMB_DTYPE) for _ in range(limb_count(k))]
        for values, at, size in pieces:  # limbs[0] is the least significant
            v = values.astype(LIMB_DTYPE)
            limb, shift = divmod(2 * at, LIMB_BITS)
            if shift + 2 * size > LIMB_BITS:  # the top bits go one limb up
                limbs[limb + 1] |= v >> _U64(LIMB_BITS - shift)
            v <<= _U64(shift)
            limbs[limb] |= v
        return KmerArray(k, tuple(limbs[::-1]))

    # ------------------------------------------------------------------
    # sort-key helpers
    # ------------------------------------------------------------------
    def argsort(self) -> np.ndarray:
        """Stable lexicographic argsort (reference implementation; the
        pipeline uses :mod:`repro.sort` instead)."""
        return np.lexsort(self.limbs[::-1])

    def run_boundaries(self) -> np.ndarray:
        """For a *sorted* array, indices where a new distinct k-mer starts,
        plus the final length.  ``len(result) - 1`` distinct k-mers."""
        n = len(self)
        if n == 0:
            return np.zeros(1, dtype=np.int64)
        new = reduce(np.logical_or, (x[1:] != x[:-1] for x in self.limbs))
        starts = np.flatnonzero(new) + 1
        return np.concatenate(([0], starts, [n])).astype(np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"KmerArray(k={self.k}, n={len(self)}, limbs={len(self.limbs)})"


@dataclass(frozen=True)
class KmerCodec:
    """Scalar conversions and constants for a fixed ``k``.

    Scalars are ``(hi, lo)`` pairs of Python ints; ``hi`` is 0 for
    ``k <= 31``.
    """

    k: int

    def __post_init__(self) -> None:
        check_in_range("k", self.k, 1, MAX_K_TWO_LIMB)

    @property
    def tuple_bytes(self) -> int:
        """Bytes per (k-mer, read id) tuple: 12 for k<=31, 20 for k<=63."""
        return tuple_bytes(self.k)

    def encode(self, seq: str) -> Tuple[int, int]:
        """Pack a length-``k`` string into ``(hi, lo)`` Python ints."""
        if len(seq) != self.k:
            raise ValueError(f"expected length {self.k}, got {len(seq)}")
        codes = encode_sequence(seq)
        if (codes > 3).any():
            raise ValueError(f"k-mer contains non-ACGT base: {seq!r}")
        value = 0
        for c in codes:
            value = (value << 2) | int(c)
        return value >> LIMB_BITS, value & _LIMB_MASK

    def decode(self, hi: int, lo: int) -> str:
        """Unpack ``(hi, lo)`` into the k-mer string."""
        value = (int(hi) << LIMB_BITS) | int(lo)
        out = []
        for i in range(self.k):
            shift = 2 * (self.k - 1 - i)
            out.append(BASES[(value >> shift) & 3])
        return "".join(out)

    def decode_array(self, kmers: KmerArray) -> "list[str]":
        """Decode every element of a :class:`KmerArray` (tests/debugging)."""
        if kmers.k != self.k:
            raise ValueError(f"k mismatch: codec {self.k}, array {kmers.k}")
        hi, lo = ((np.zeros(len(kmers), LIMB_DTYPE),) + kmers.limbs)[-2:]
        return [self.decode(int(h), int(l)) for h, l in zip(hi, lo)]

    def revcomp(self, hi: int, lo: int) -> Tuple[int, int]:
        """Reverse complement of a packed k-mer, as ``(hi, lo)``."""
        value = (int(hi) << LIMB_BITS) | int(lo)
        rc = 0
        for _ in range(self.k):
            rc = (rc << 2) | (3 - (value & 3))
            value >>= 2
        return rc >> LIMB_BITS, rc & _LIMB_MASK

    def canonical(self, seq: str) -> str:
        """Canonical form of a k-mer string (min of itself and revcomp)."""
        hi, lo = self.encode(seq)
        rhi, rlo = self.revcomp(hi, lo)
        if (rhi, rlo) < (hi, lo):
            hi, lo = rhi, rlo
        return self.decode(hi, lo)

    def array(self, pairs: "Sequence[Tuple[int, int]]") -> KmerArray:
        """Pack ``(hi, lo)`` pairs into a :class:`KmerArray`."""
        hi_lo = np.array(pairs, dtype=LIMB_DTYPE).reshape(-1, 2).T
        return KmerArray(self.k, tuple(hi_lo[-limb_count(self.k):]))

    def from_strings(self, kmers: "list[str]") -> KmerArray:
        """Pack a list of k-mer strings into a :class:`KmerArray`."""
        return self.array([self.encode(s) for s in kmers])

"""The k-step shift loop: the test oracle of the k-mer window kernel.

This is the enumerator :mod:`repro.kmers.engine` ran before it went prefix
first, kept verbatim.  It keeps *every* k-mer of a read batch in flight: a
``k``-iteration shift loop over the batch's concatenated code array builds
all forward k-mers and all reverse complements as whole-array operations,
then canonicalizes with an elementwise minimum — the NumPy analogue of the
paper's SIMD kernel (section 3.2.1), one base per step.

The engine's doubling build must emit exactly the tuples, in exactly the
order, this loop does; the tests hold it to that.
"""

from __future__ import annotations

import numpy as np

from repro.kmers.codec import MAX_K_TWO_LIMB, KmerArray, limb_count
from repro.kmers.engine import KmerTuples
from repro.seqio.records import ReadBatch
from repro.util.validation import check_in_range

_U64 = np.uint64
_TWO = _U64(2)
_THREE = _U64(3)
_SIXTYTWO = _U64(62)


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

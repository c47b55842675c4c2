"""DNA alphabet and 2-bit base encoding.

METAPREP packs bases two bits each (A=0, C=1, G=2, T=3), exactly the layout
assumed by the vectorized k-mer generator (paper section 3.2.1).  The ``N``
symbol (and any other non-ACGT character) maps to :data:`CODE_INVALID`;
k-mers containing it are never enumerated (section 3.2).

Encoding/decoding is table-driven and fully vectorized: a 256-entry lookup
array translates raw ASCII bytes to codes in one NumPy gather.
"""

from __future__ import annotations

import numpy as np

#: Canonical base ordering; index in this string == 2-bit code.
BASES = "ACGT"

CODE_A = np.uint8(0)
CODE_C = np.uint8(1)
CODE_G = np.uint8(2)
CODE_T = np.uint8(3)

#: Sentinel for N / unknown bases.  Chosen > 3 so that validity is a simple
#: ``codes <= 3`` test and window sums expose contamination cheaply.
CODE_INVALID = np.uint8(4)


def _build_encode_lut() -> np.ndarray:
    lut = np.full(256, CODE_INVALID, dtype=np.uint8)
    for code, base in enumerate(BASES):
        lut[ord(base)] = code
        lut[ord(base.lower())] = code
    return lut


def _build_complement_lut() -> np.ndarray:
    # complement of code c is 3 - c; invalid stays invalid.
    lut = np.arange(256, dtype=np.uint8)
    lut[:4] = 3 - np.arange(4, dtype=np.uint8)
    lut[4:] = CODE_INVALID
    return lut


_ENCODE_LUT = _build_encode_lut()
_COMPLEMENT_LUT = _build_complement_lut()
_DECODE_LUT = np.frombuffer((BASES + "N" * 252).encode("ascii"), dtype=np.uint8)


def encode_sequence(seq: str | bytes | np.ndarray) -> np.ndarray:
    """Encode a DNA string (or its ASCII bytes, as ``bytes`` or a ``uint8``
    array) into a ``uint8`` code array.

    Non-ACGT characters (including ``N``) become :data:`CODE_INVALID`.
    Case-insensitive.

    >>> encode_sequence("ACGTN").tolist()
    [0, 1, 2, 3, 4]
    """
    if isinstance(seq, str):
        seq = seq.encode("ascii")
    raw = np.frombuffer(seq, dtype=np.uint8)
    return _ENCODE_LUT[raw]


def decode_sequence(codes: np.ndarray) -> str:
    """Decode a ``uint8`` code array back into a DNA string.

    Invalid codes decode to ``N``.

    >>> decode_sequence(np.array([0, 1, 2, 3, 4], dtype=np.uint8))
    'ACGTN'
    """
    codes = np.asarray(codes, dtype=np.uint8)
    return _DECODE_LUT[np.minimum(codes, 4)].tobytes().decode("ascii")


def complement_codes(codes: np.ndarray) -> np.ndarray:
    """Complement a code array elementwise (A<->T, C<->G); N stays N."""
    return _COMPLEMENT_LUT[np.asarray(codes, dtype=np.uint8)]


def reverse_complement(seq: str) -> str:
    """Reverse-complement a DNA string.

    >>> reverse_complement("ACGTN")
    'NACGT'
    """
    return decode_sequence(complement_codes(encode_sequence(seq))[::-1])

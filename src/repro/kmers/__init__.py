"""Vectorized canonical k-mer machinery.

The paper generates four k-mers at a time with 128-bit SIMD registers
(section 3.2.1, Figure 3).  Here whole read chunks go at once, prefix
first: doubling tables give every window's canonical m-mer prefix, and only
the windows a pass keeps get a full k-mer, built from ``popcount(k)``
pieces per strand.  k <= 31 uses a single ``uint64`` limb; 32 <= k <= 63
uses two, mirroring the paper's 64-bit / 128-bit k-mer encodings.  Every
kernel loops over the limbs, so both widths run one code path.
"""

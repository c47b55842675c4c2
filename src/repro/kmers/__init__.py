"""Vectorized canonical k-mer machinery.

The paper generates four k-mers at a time with 128-bit SIMD registers
(section 3.2.1, Figure 3).  Here whole read chunks go at once, prefix
first: doubling tables give every window's canonical m-mer prefix, and only
the windows a pass keeps get a full k-mer, built from ``popcount(k)``
pieces per strand.  k <= 31 uses a single ``uint64`` limb; 32 <= k <= 63
uses two, mirroring the paper's 64-bit / 128-bit k-mer encodings.  Every
kernel loops over the limbs, so both widths run one code path.
"""

from repro.kmers.codec import (
    MAX_K_ONE_LIMB,
    MAX_K_TWO_LIMB,
    KmerArray,
    KmerCodec,
)
from repro.kmers.engine import enumerate_canonical_kmers, KmerTuples
from repro.kmers.counter import count_canonical_kmers, KmerSpectrum
from repro.kmers.filter import FrequencyFilter
from repro.kmers.minimizers import minimizer_of_each_kmer, split_super_kmers
from repro.kmers.normalization import DigitalNormalizer, NormalizationStats
from repro.kmers.spectrum_analysis import (
    SpectrumReport,
    analyze_spectrum,
    recommended_filter_band,
)

__all__ = [
    "MAX_K_ONE_LIMB",
    "MAX_K_TWO_LIMB",
    "KmerArray",
    "KmerCodec",
    "enumerate_canonical_kmers",
    "KmerTuples",
    "count_canonical_kmers",
    "KmerSpectrum",
    "FrequencyFilter",
    "minimizer_of_each_kmer",
    "split_super_kmers",
    "DigitalNormalizer",
    "NormalizationStats",
    "SpectrumReport",
    "analyze_spectrum",
    "recommended_filter_band",
]

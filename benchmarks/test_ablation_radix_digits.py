"""Ablation: radix digit width (paper section 3.4's design choice).

"We find that sorting 8 bits per pass is faster than sorting a higher
number of bits (say, 16) because accessing bucket counts of 256 buckets
repeatedly has better temporal locality than accessing counts of 65536
buckets randomly, even though the number of passes is high."

Both widths run on identical tuples; outputs must agree; throughputs and
the pass-count trade are reported.  (On this NumPy substrate the balance
can differ from a C implementation — the report records which width wins
here; correctness and the 2x pass-count relationship are asserted.)
"""

import numpy as np
import pytest

from benchmarks.reporting import table_lines, write_report
from repro.baselines.numa_sort import sort_throughput
from repro.kmers.codec import KmerArray
from repro.kmers.engine import KmerTuples
from repro.sort.radix import radix_sort_tuples

N = 300_000


@pytest.fixture(scope="module")
def tuples():
    rng = np.random.default_rng(777)
    lo = rng.integers(0, 1 << 54, size=N, dtype=np.uint64)
    ids = rng.integers(0, N, size=N, dtype=np.uint32)
    return KmerTuples(KmerArray(27, lo), ids)


@pytest.mark.benchmark(group="ablation-radix")
def test_ablation_8_vs_16_bit_digits(tuples, benchmark):
    benchmark.pedantic(
        lambda: radix_sort_tuples(tuples, digit_bits=8), rounds=1, iterations=1
    )
    out8, stats8 = radix_sort_tuples(tuples, skip_constant=False, digit_bits=8)
    out16, stats16 = radix_sort_tuples(tuples, skip_constant=False, digit_bits=16)

    # identical results
    assert np.array_equal(out8.kmers.lo, out16.kmers.lo)
    assert np.array_equal(out8.read_ids, out16.read_ids)
    # the pass-count trade: 16-bit halves the passes
    assert stats8.passes_executed == 8
    assert stats16.passes_executed == 4
    assert stats16.bucket_bits == 16

    r8 = sort_throughput(
        lambda t: radix_sort_tuples(t, skip_constant=False, digit_bits=8)[0],
        tuples,
        repeats=2,
    )
    r16 = sort_throughput(
        lambda t: radix_sort_tuples(t, skip_constant=False, digit_bits=16)[0],
        tuples,
        repeats=2,
    )
    write_report(
        "ablation_radix",
        "Ablation: radix digit width (paper section 3.4)",
        table_lines(
            ["digit bits", "buckets", "passes", "tuples/s"],
            [
                [8, 256, stats8.passes_executed, f"{r8 / 1e6:.1f} M"],
                [16, 65536, stats16.passes_executed, f"{r16 / 1e6:.1f} M"],
                [
                    "paper's pick",
                    "8-bit",
                    "(cache locality of bucket counters)",
                    f"ratio 8/16: {r8 / r16:.2f}",
                ],
            ],
        ),
    )
    # same order of magnitude either way
    assert 0.2 < r8 / r16 < 5.0


@pytest.mark.benchmark(group="ablation-radix")
def test_ablation_16bit_two_limb(benchmark):
    """16-bit digits also cover the 128-bit k-mer case (8 passes vs 16)."""
    rng = np.random.default_rng(778)
    lo = rng.integers(0, 2**63, size=50_000, dtype=np.uint64)
    hi = rng.integers(0, 1 << 26, size=50_000, dtype=np.uint64)
    tuples = KmerTuples(
        KmerArray(45, (hi, lo)), rng.integers(0, 50_000, 50_000, dtype=np.uint32)
    )
    benchmark.pedantic(
        lambda: radix_sort_tuples(tuples, digit_bits=16), rounds=1, iterations=1
    )
    out16, stats16 = radix_sort_tuples(
        tuples, skip_constant=False, digit_bits=16
    )
    out8, _ = radix_sort_tuples(tuples, skip_constant=False, digit_bits=8)
    assert stats16.passes_executed == 8
    assert np.array_equal(out16.kmers.lo, out8.kmers.lo)
    assert np.array_equal(out16.kmers.hi, out8.kmers.hi)

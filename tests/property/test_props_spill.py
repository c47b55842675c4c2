"""Spill format property tests: disk is invisible in the bytes.

Hypothesis probes of the out-of-core wire format, mirroring the
dataplane invariant one layer down:

1. **Round trip** — a random block spilled with ``write_spill`` and
   restored with ``read_spill`` is bit-identical, across one- and
   two-limb layouts, all lengths including zero, and partial-prefix
   spills.
2. **Region tiling** — a disk-plane block filled at random cut points
   and sealed equals the single-shot spill byte for byte, which is the
   property the out-of-core all-to-all's uncoordinated offset writes
   rest on.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kmers.codec import KmerArray, limb_count
from repro.kmers.engine import KmerTuples
from repro.runtime.buffers import HeapBufferPool
from repro.runtime.spill import read_spill, write_spill
from repro.runtime.transport import DiskBlockTransport, write_block_region

#: k values straddling the limb boundary: 31 is the widest one-limb k,
#: 32 the only k whose top limb holds no bits
K_VALUES = (15, 31, 32, 33)


def _random_tuples(seed, n, k):
    rng = np.random.default_rng(seed)
    limbs = [
        rng.integers(0, 2**63, size=n, dtype=np.uint64)
        for _ in range(limb_count(k))
    ]
    ids = rng.integers(0, 2**32, size=n, dtype=np.uint32)
    return KmerTuples(KmerArray(k, limbs), ids)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 200),
    st.sampled_from(K_VALUES),
)
def test_spill_round_trip_bit_identical(seed, n, k):
    tuples = _random_tuples(seed, n, k)
    pool = HeapBufferPool()
    try:
        block = pool.allocate(k, n)
        block.write(0, tuples)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "block.spill"
            write_spill(path, block)
            got = read_spill(path, pool)
        assert got.capacity == n
        for x, y in zip(got.view(0, n).columns, tuples.columns, strict=True):
            assert np.array_equal(x, y)
    finally:
        pool.close()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 200),
    st.integers(0, 200),
    st.sampled_from(K_VALUES),
)
def test_partial_prefix_spill_round_trip(seed, n, prefix, k):
    """Spilling the first ``length`` tuples of a larger block restores
    exactly that prefix (the partially-filled-block case)."""
    prefix = min(prefix, n)
    tuples = _random_tuples(seed, n, k)
    pool = HeapBufferPool()
    try:
        block = pool.allocate(k, n)
        block.write(0, tuples)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "block.spill"
            write_spill(path, block, length=prefix)
            got = read_spill(path, pool)
        assert got.capacity == prefix
        want = tuples.slice(0, prefix)
        for x, y in zip(got.view(0, prefix).columns, want.columns, strict=True):
            assert np.array_equal(x, y)
    finally:
        pool.close()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 120),
    st.lists(st.integers(0, 120), max_size=6),
    st.sampled_from(K_VALUES),
)
def test_region_tiling_equals_single_shot(seed, n, raw_cuts, k):
    """Any tiling of [0, n) by regions — including empty ones — fills a
    published disk block to byte equality with the one-shot spill."""
    tuples = _random_tuples(seed, n, k)
    cuts = sorted({0, n, *[c % (n + 1) for c in raw_cuts]})
    pool = HeapBufferPool()
    try:
        block = pool.allocate(k, n)
        block.write(0, tuples)
        with tempfile.TemporaryDirectory() as tmp:
            one_shot = Path(tmp) / "one.spill"
            write_spill(one_shot, block)
            with DiskBlockTransport(tmp) as plane:
                handle = plane.publish(k, n, owner=0)
                for lo, hi in zip(cuts[:-1], cuts[1:]):
                    write_block_region(
                        handle, lo, tuples.take(np.arange(lo, hi))
                    )
                plane.seal([handle])
                regioned = Path(handle.path).read_bytes()
            assert one_shot.read_bytes() == regioned
    finally:
        pool.close()

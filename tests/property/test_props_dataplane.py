"""Block-plane property tests: the buffer backing is invisible in the bytes.

Two layers of the same invariant, probed with hypothesis:

1. **Block level** — random tuple batches written through a heap block
   and a shared-memory block read back bit-identical, across one-limb
   and two-limb layouts.
2. **Pipeline level** — a full multipass run on the serial engine
   (heap plane) equals the same run on the process engine (shm plane)
   bit for bit (labels, parent array, summary), over random read sets
   and k spanning the one-limb/two-limb boundary.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.index.create import index_create
from repro.kmers.codec import KmerArray, limb_count
from repro.kmers.engine import KmerTuples
from repro.runtime.buffers import HeapBufferPool, SharedMemoryBufferPool
from repro.seqio.fastq import write_fastq
from repro.seqio.records import FastqRecord

#: k values straddling the limb boundary: 31 is the widest one-limb k,
#: 32 the only k whose top limb holds no bits
K_VALUES = (15, 31, 32, 33)

# min read length 1: an empty sequence cannot round-trip through FASTQ
reads_strategy = st.lists(
    st.text(alphabet="ACGTN", min_size=1, max_size=70),
    min_size=1,
    max_size=10,
)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 200),
    st.sampled_from(K_VALUES),
)
def test_block_backing_invisible(seed, n, k):
    rng = np.random.default_rng(seed)
    limbs = [
        rng.integers(0, 2**63, size=n, dtype=np.uint64)
        for _ in range(limb_count(k))
    ]
    ids = rng.integers(0, 2**31, size=n, dtype=np.uint32)
    tuples = KmerTuples(KmerArray(k, limbs), ids)

    heap = HeapBufferPool().allocate(k, n)
    heap.write(0, tuples)
    shm_pool = SharedMemoryBufferPool()
    try:
        shm = shm_pool.allocate(k, n)
        shm.write(0, tuples)
        a, b = heap.view(0, n), shm.view(0, n)
        for x, y in zip(a.columns, b.columns, strict=True):
            assert np.array_equal(x, y)
    finally:
        shm_pool.close()


def _run(units, index, k, executor):
    cfg = PipelineConfig(
        k=k,
        m=4,
        n_tasks=2,
        n_threads=2,
        n_passes=2,
        write_outputs=False,
        executor=executor,
        max_workers=2,
    )
    return MetaPrep(cfg).run(units, index=index)


@settings(max_examples=10, deadline=None)
@given(reads_strategy, st.sampled_from(K_VALUES))
def test_pipeline_backing_invisible(seqs, k):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "reads.fastq"
        write_fastq(
            path,
            [
                FastqRecord(f"r{i}", s, "I" * len(s))
                for i, s in enumerate(seqs)
            ],
        )
        units = [str(path)]
        index = index_create(units, k=k, m=4, n_chunks=8)
        heap = _run(units, index, k, "serial")
        shared = _run(units, index, k, "process")
    assert np.array_equal(heap.partition.labels, shared.partition.labels)
    assert np.array_equal(heap.partition.parent, shared.partition.parent)
    assert heap.partition.summary == shared.partition.summary

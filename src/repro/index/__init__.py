"""IndexCreate: the two index tables and the static load-balancing math.

Paper section 3.1: a sequential, once-per-dataset step builds

* **merHist** — counts of all m-mer prefixes of canonical k-mers (4^m bins,
  32-bit counts), used to split the k-mer range across passes and tasks;
* **FASTQPart** — a table of C roughly equal-sized logical FASTQ chunks,
  each with its byte location, first global read id, size, and its own
  m-mer histogram, used to precompute every buffer offset and message size
  in the parallel phase.

"These two tables let us statically determine, for a given task and thread
concurrency, the main memory required per thread, the fewest number of
passes for the dataset, the k-mer range to enumerate in each pass, the
offsets into the FASTQ files that the threads should read from, and the
thread offsets for in-memory buffers."
"""

from repro.index.merhist import MerHist, build_merhist
from repro.index.fastqpart import (
    FastqPartTable,
    FastqUnit,
    build_fastqpart,
    load_chunk_reads,
)
from repro.index.offsets import (
    chunk_assignment,
    send_counts_matrix,
    recv_counts_matrix,
    thread_write_offsets,
)
from repro.index.passplan import (
    BudgetTooSmall,
    PassSpec,
    PassPlan,
    balanced_boundaries,
    plan_passes,
    passes_for_memory_budget,
)
from repro.index.create import IndexCreateResult, index_create

__all__ = [
    "MerHist",
    "build_merhist",
    "FastqPartTable",
    "FastqUnit",
    "build_fastqpart",
    "load_chunk_reads",
    "chunk_assignment",
    "send_counts_matrix",
    "recv_counts_matrix",
    "thread_write_offsets",
    "PassSpec",
    "PassPlan",
    "balanced_boundaries",
    "plan_passes",
    "passes_for_memory_budget",
    "BudgetTooSmall",
    "IndexCreateResult",
    "index_create",
]

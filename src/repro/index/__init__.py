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

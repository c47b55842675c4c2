"""Pipeline configuration.

Defaults follow the paper's experimental setup where practical (k = 27,
merge/communication schedules fixed by P) and scale down where the paper's
constants target 200-Gbp inputs (m defaults to 8 rather than 10 so the
FASTQPart histograms stay proportionate on laptop-scale synthetic data; any
``m <= 16`` is supported and the paper's ``m = 10`` is a one-liner).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kmers.codec import MAX_K_TWO_LIMB, KmerCodec
from repro.kmers.filter import FrequencyFilter
from repro.runtime.executor import EXECUTOR_NAMES
from repro.runtime.spill import SPILL_NAMES
from repro.util.validation import check_in_range, check_positive


@dataclass
class PipelineConfig:
    """All knobs of a METAPREP run."""

    #: k-mer length; 27 in most paper experiments, up to 63 supported
    #: (two-limb k-mers, 20-byte tuples — paper section 4.4).
    k: int = 27
    #: m-mer prefix length for merHist / FASTQPart binning (paper: 10).
    m: int = 8
    #: MPI task count P (1 task per node in the paper's runs).
    n_tasks: int = 1
    #: OpenMP thread count T per task (24 on Edison).
    n_threads: int = 4
    #: number of I/O passes S; ``None`` derives the fewest passes that fit
    #: ``memory_budget_per_task`` (section 3.7).
    n_passes: int | None = 1
    #: per-task memory budget in bytes, used only when ``n_passes is None``.
    memory_budget_per_task: int | None = None
    #: number of logical FASTQ chunks C; ``None`` -> 4 chunks per thread.
    n_chunks: int | None = None
    #: k-mer frequency filter gating read-graph edges (section 4.4).
    kmer_filter: FrequencyFilter = field(default_factory=FrequencyFilter)
    #: enumerate component ids instead of read ids on passes >= 2
    #: (LocalCC-Opt, section 3.5.1).
    localcc_opt: bool = True
    #: machine model used for timing projection.
    machine: str = "edison"
    #: write the partitioned FASTQ output files (CC-I/O step).  Disable in
    #: unit tests that only need the partition labels.
    write_outputs: bool = True
    #: execution backend for per-chunk KmerGen and per-owner-task
    #: LocalSort+LocalCC: ``"serial"`` (inline, the reference engine),
    #: ``"process"`` (a real multiprocessing pool) or ``"distributed"``
    #: (``metaprep worker`` daemons).  All engines are bit-identical; see
    #: :mod:`repro.runtime.executor`.  The engine also fixes where the
    #: in-memory exchange blocks live (heap / shm / the workers' stores:
    #: :func:`repro.runtime.transport.create_block_transport`).
    executor: str = "serial"
    #: worker-process count for the ``"process"`` engine (``None`` ->
    #: the CPUs available to this process per the scheduling affinity
    #: mask; see :func:`repro.runtime.executor.available_cpu_count`).
    #: Ignored by the serial engine.
    max_workers: int | None = None
    #: ``host:port`` registry of ``metaprep worker`` daemons for the
    #: ``"distributed"`` engine (one entry per worker; jobs and owner
    #: blocks are placed by task rank modulo this list).  Required
    #: non-empty by that engine, ignored by the in-host engines.
    worker_addresses: tuple[str, ...] = ()
    #: collect real-run telemetry (:mod:`repro.telemetry`): per-worker
    #: spans for every stage, hot-path counters, pool gauges.  Purely
    #: observational — never part of the partition result.
    telemetry: bool = False
    #: persist the run's telemetry artifacts (``telemetry.json``, the
    #: Perfetto ``trace.json``, metrics snapshot, Prometheus textfile)
    #: under this directory.  Setting it implies ``telemetry``; with
    #: ``telemetry=True`` and no directory the merged record is returned
    #: on the :class:`~repro.core.pipeline.PipelineResult` only and
    #: nothing is written.
    telemetry_dir: str | None = None
    #: which passes run on the disk block plane
    #: (:mod:`repro.runtime.spill`) instead of the engine's in-memory
    #: one: ``"never"`` keeps every pass's tuples in resident blocks;
    #: ``"always"`` routes every pass through per-owner spill files on
    #: disk; ``"auto"`` spills exactly the passes whose
    #: in-memory residency would exceed ``memory_budget_per_task`` (and
    #: never spills when no budget is set) — the planner decision rule
    #: in :func:`repro.index.passplan.spill_schedule`.  Spilling changes
    #: where tuple bytes live, never what they are: spill runs are
    #: bit-identical to in-memory runs by the differential contract of
    #: ``tests/integration/test_out_of_core.py``.
    spill: str = "auto"
    #: directory under which the run's private spill directory is
    #: created (``None`` -> the system temp dir).  Point it at fast
    #: local scratch for real out-of-core runs.
    spill_dir: str | None = None

    def __post_init__(self) -> None:
        check_in_range("k", self.k, 2, MAX_K_TWO_LIMB)
        check_in_range("m", self.m, 1, min(self.k - 1, 16))
        check_positive("n_tasks", self.n_tasks)
        check_positive("n_threads", self.n_threads)
        if self.n_passes is not None:
            check_positive("n_passes", self.n_passes)
        elif self.memory_budget_per_task is None:
            raise ValueError(
                "set n_passes or memory_budget_per_task (n_passes=None "
                "means 'derive from the budget')"
            )
        # the budget steers the pass planner *and* the spill schedule;
        # a zero/negative budget used to slip through here whenever
        # n_passes was set and only blow up (obscurely) downstream
        if self.memory_budget_per_task is not None:
            check_positive(
                "memory_budget_per_task", self.memory_budget_per_task
            )
        if self.spill not in SPILL_NAMES:
            raise ValueError(
                f"spill must be one of {SPILL_NAMES}, got {self.spill!r}"
            )
        if self.executor not in EXECUTOR_NAMES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_NAMES}, "
                f"got {self.executor!r}"
            )
        if self.max_workers is not None:
            check_positive("max_workers", self.max_workers)
        self.worker_addresses = tuple(self.worker_addresses or ())
        if self.executor == "distributed":
            if not self.worker_addresses:
                raise ValueError(
                    "executor='distributed' needs worker_addresses "
                    "(host:port of running `metaprep worker` daemons)"
                )
        if self.n_chunks is not None:
            if self.n_chunks < self.n_tasks * self.n_threads:
                raise ValueError(
                    f"n_chunks ({self.n_chunks}) must be >= n_tasks * "
                    f"n_threads ({self.n_tasks * self.n_threads})"
                )

    @property
    def telemetry_enabled(self) -> bool:
        """Telemetry is on when requested explicitly or implied by a
        persistence directory."""
        return bool(self.telemetry or self.telemetry_dir is not None)

    @property
    def codec(self) -> KmerCodec:
        return KmerCodec(self.k)

    @property
    def tuple_bytes(self) -> int:
        return self.codec.tuple_bytes

    @property
    def total_slots(self) -> int:
        return self.n_tasks * self.n_threads

    def resolved_chunks(self) -> int:
        return self.n_chunks if self.n_chunks is not None else 4 * self.total_slots

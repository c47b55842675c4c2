"""The METAPREP driver: IndexCreate -> S x (KmerGen -> Comm -> LocalSort ->
LocalCC) -> MergeCC -> partitioned output.

One run is six stage functions over one run state (``_Run``), which
``_run`` calls in order:

1. ``_index_stage`` — IndexCreate, or the prebuilt or cached tables;
2. ``_plan_stage`` — pass count and ranges, chunk slots, spill schedule,
   forests, and the resume point of an on-disk checkpoint;
3. ``_passes_stage`` — per pass, ``_run_pass``: KmerGen -> exchange ->
   LocalSort + LocalCC, checkpointed as each pass completes.  This stage
   owns the one scope over the engine and the block planes;
4. ``_merge_stage`` — MergeCC and the component labels;
5. ``_write_stage`` — CC-I/O, the partitioned FASTQ files;
6. ``_result_stage`` — the projection, telemetry export, ``PipelineResult``.

The run is organized *exactly* as the paper's distributed execution — P
tasks x T threads, chunk assignment and k-mer ranges from the index tables,
the P-stage all-to-all, per-task forests merged over a binary tree.  The
units of work (per-chunk KmerGen, per-owner-task LocalSort+LocalCC) are
dispatched through one :mod:`repro.runtime.executor` engine (``serial``
inline, ``process`` on a pool, ``distributed`` on worker daemons), and a
pass's tuples live on one :mod:`repro.runtime.transport` block plane: the
in-memory plane the engine implies, or disk for a spilled pass.

Results are bit-identical across engines and planes — and to a real
parallel run with the same decomposition — because the forest state after
each pass is canonical: flat, every read pointing at its component's
maximum read index (union-by-index), independent of edge order.  The job
lists and result-merging loops keep the paper's deterministic orders
(threads in rank order, sources in rank order), never worker scheduling,
so the per-step counters match as well.

Every step is timed once, where it runs, by ``telemetry.span(step,
times=...)``: the one clock read feeds both ``result.measured`` and, when
telemetry is on, the span in the run's trace.  Two timings come out:

* ``result.measured`` — real seconds per step, summed over the workers
  that ran it.  Under the serial engine this is wall time (what the local
  benchmarks report); under the parallel engines it is *work* seconds and
  can exceed wall-clock.
* ``result.projected`` — the calibrated machine-model projection from the
  measured work volumes (what reproduces the paper's figures; see
  :mod:`repro.runtime.timing`).
"""

from __future__ import annotations

import os
import resource
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Sequence

import numpy as np

from repro.cc.dsf import DisjointSetForest
from repro.cc.localcc import (
    LocalCCStats,
    fold_block_partitions,
    map_ids_to_components,
)
from repro.cc.mergecc import MergeCCStats, merge_component_arrays, tree_merge_schedule
from repro.core.checkpoint import Checkpoint, CheckpointStore, config_fingerprint
from repro.core.config import PipelineConfig
from repro.core.partition import (
    PartitionResult,
    partition_from_parent,
    write_partitions,
)
from repro.index.create import IndexCreateResult, index_create
from repro.index.fastqpart import FastqPartTable, load_chunk_reads
from repro.index.offsets import (
    chunk_assignment,
    chunk_send_counts,
    recv_write_offsets,
    send_counts_matrix,
)
from repro.index.passplan import (
    PassPlan,
    PassSpec,
    passes_for_memory_budget,
    plan_passes,
    spill_schedule,
)
from repro.kmers.engine import select_canonical_kmers
from repro.kmers.filter import FrequencyFilter
from repro import telemetry
from repro.telemetry.collect import TelemetryCollector, RunTelemetry
from repro.runtime.comm import AllToAllStats, block_exchange_stats
from repro.runtime.transport import (
    BlockTransport,
    DiskBlockTransport,
    PlaneHandle,
    create_block_transport,
    resolve_block,
    write_block_region,
)
from repro.runtime.executor import (
    ExecutionBackend,
    create_engine,
    worker_shared,
)
from repro.runtime.machines import get_machine
from repro.runtime.timing import ProjectedTimes, TimingModel
from repro.runtime.work import RunWork, StepNames
from repro.sort.radix import RadixSortStats, radix_passes_for, radix_sort_block
from repro.util.logging import get_logger
from repro.util.timers import TimeBreakdown

_LOG = get_logger("core.pipeline")


class StaticCountMismatch(AssertionError):
    """The FASTQPart-precomputed counts disagreed with actual KmerGen
    output — indicates index/table corruption or a k/m mismatch."""


# ----------------------------------------------------------------------
# executor job payloads and worker functions
#
# Everything below the pool boundary is a module-level function over
# picklable payloads so the process engine can ship it to workers; the
# serial engine calls the very same functions inline, which is what makes
# the two engines bit-identical by construction.
#
# Tuples never appear in the payloads.  Each pass publishes one
# destination block per owner task on its block plane, sized exactly by
# the index tables (:func:`repro.index.offsets.recv_write_offsets`);
# KmerGen jobs carry block *handles* plus their chunk's write offsets
# and write kept tuples straight into the owners' blocks, and owner jobs
# sort/fold the very same backing in place.  A handle is a few hundred
# bytes whatever the tuple volume and whichever plane issued it (heap
# block, shm descriptor, socket ref, spill file) — the zero-copy
# exchange the paper's custom all-to-all corresponds to.
#
# Results carry no copy of their job: every engine returns them in
# submission order (the determinism contract of repro.runtime.executor),
# so each stage zips its results with its own job list.
# ----------------------------------------------------------------------


@dataclass
class _WorkerContext:
    """Per-run state installed on every worker once (not per job)."""

    table: FastqPartTable
    k: int
    m: int
    n_tasks: int
    n_threads: int
    kmer_filter: FrequencyFilter
    #: whether the run collects telemetry: a worker daemon then sends
    #: each request's events home with its reply
    telemetry: bool = False


def _sample_peak_rss(task: int) -> None:
    telemetry.set_gauge(
        "proc.peak_rss_kb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        task=task,
    )


@dataclass
class _ChunkJob:
    """One KmerGen unit: enumerate one FASTQ chunk for one pass."""

    chunk: int
    #: owner slot (task rank) this chunk is assigned to — span attribution
    task: int
    bin_lo: int
    bin_hi: int
    task_edges: np.ndarray
    #: table-predicted tuples this chunk sends each destination: (P,)
    expected_counts: np.ndarray
    #: this chunk's write offset in each destination block: (P,)
    write_offsets: np.ndarray
    #: destination block handles of the pass's plane, owner-task order
    blocks: List[PlaneHandle]


@dataclass
class _ChunkResult:
    #: tuples actually written per destination (== expected, verified)
    counts: np.ndarray
    #: k-mer positions scanned (pre-range-filter), for work accounting
    n_positions: int
    times: TimeBreakdown


def _kmergen_chunk_task(job: _ChunkJob) -> _ChunkResult:
    """Enumerate one chunk's in-pass k-mers into the destination blocks.

    Pure with respect to driver state: reads the shared context, touches
    no forests (the LocalCC-Opt id->component mapping happens on the
    driver, per sender region, exactly as a sequential scan would).  The
    kept tuples are written directly into each owner task's block at
    this chunk's precomputed offsets — the all-to-all "send" is the
    write itself; only the tiny count/stat result crosses back.
    """
    ctx: _WorkerContext = worker_shared()
    times = TimeBreakdown()
    with telemetry.span(StepNames.KMERGEN_IO, task=job.task, aux=job.chunk, times=times):
        batch = load_chunk_reads(ctx.table, job.chunk)

    with telemetry.span(StepNames.KMERGEN, task=job.task, aux=job.chunk, times=times):
        kept, kept_bins, n_positions = select_canonical_kmers(
            batch, ctx.k, ctx.m, job.bin_lo, job.bin_hi
        )
        dest = np.searchsorted(job.task_edges, kept_bins, side="right") - 1
        dest = np.clip(dest, 0, ctx.n_tasks - 1)
        parts, counts = kept.split_by_destination(dest, ctx.n_tasks)
    for d in np.flatnonzero(counts):
        telemetry.add_counter(
            "kmergen.tuples_routed", int(counts[d]), task=job.task, aux=int(d)
        )

    # The write offsets assume the table-predicted counts, so a mismatch
    # would scribble over a neighboring chunk's region.  Check before
    # touching blocks.
    if not np.array_equal(counts, job.expected_counts):
        d = int(np.flatnonzero(counts != job.expected_counts)[0])
        raise StaticCountMismatch(
            f"chunk {job.chunk} -> task {d}: produced {counts[d]} tuples, "
            f"index predicted {job.expected_counts[d]}"
        )

    # the write IS the all-to-all: heap/shm handles land in the owner's
    # resident block, socket handles in the owning worker's store
    # (off-diagonal regions cross the wire — net.bytes_sent), disk
    # handles in the owner's preallocated spill file
    with telemetry.span(StepNames.KMERGEN_COMM, task=job.task, aux=job.chunk, times=times):
        for d, part in enumerate(parts):
            if len(part):
                write_block_region(
                    job.blocks[d], int(job.write_offsets[d]), part, sender=job.task
                )
    _sample_peak_rss(job.task)
    return _ChunkResult(
        counts=counts,
        n_positions=n_positions,
        times=times,
    )


@dataclass
class _OwnerJob:
    """One owner-task unit: LocalSort + LocalCC for task ``task``'s range."""

    task: int
    #: which of the S passes this job belongs to
    pass_index: int
    #: live tuples in the block (== block capacity for this pass)
    n_received: int
    #: the task's forest state; mutated in place by the serial engine,
    #: on a pickled copy (returned in the result) by the process engine
    parent: np.ndarray
    #: the planner's ``T + 1`` m-mer prefix bin edges of the thread ranges
    thread_edges: np.ndarray
    #: the task's received-tuple block (sources in rank order — the
    #: deterministic receive-side layout of the zero-copy exchange)
    block: PlaneHandle


@dataclass
class _OwnerResult:
    parent: np.ndarray
    #: per-thread range sizes, threads in rank order
    part_lengths: np.ndarray
    #: per-thread LocalCC edge counts, threads in rank order
    edges_by_thread: np.ndarray
    sort_stats: RadixSortStats
    cc_stats: LocalCCStats
    times: TimeBreakdown


def _owner_sort_cc_task(job: _OwnerJob) -> _OwnerResult:
    """Sort and fold one owner task's received block.

    Both steps operate in place over the block's backing: one radix sort
    of the whole block, whose sorted m-mer prefixes give the per-thread
    ranges, then the LocalCC folds over zero-copy views of those ranges.
    Threads fold in rank order, so the union sequence — and with it the
    resulting parent array — is identical on every engine.
    """
    ctx: _WorkerContext = worker_shared()
    times = TimeBreakdown()
    forest = DisjointSetForest.wrap(job.parent)

    # resolves zero-copy on the memory planes: heap blocks directly, shm
    # descriptors via segment attach, socket refs against the local
    # worker's own store (owner jobs run on the hosting worker); a disk
    # handle is loaded as the job's one resident block and consumed
    with resolve_block(job.block) as block:
        with telemetry.span(StepNames.LOCALSORT, task=job.task, aux=job.pass_index, times=times):
            counts, sort_stats = radix_sort_block(
                block, job.n_received, ctx.m, job.thread_edges
            )

        with telemetry.span(StepNames.LOCALCC, task=job.task, aux=job.pass_index, times=times):
            cc_stats, edges_by_thread = fold_block_partitions(
                block, counts, forest, ctx.kmer_filter
            )
    _sample_peak_rss(job.task)
    return _OwnerResult(
        parent=forest.parent,
        part_lengths=counts,
        edges_by_thread=edges_by_thread,
        sort_stats=sort_stats,
        cc_stats=cc_stats,
        times=times,
    )


@dataclass
class PipelineResult:
    """Everything a run produced."""

    config: PipelineConfig
    n_reads: int
    partition: PartitionResult
    work: RunWork
    projected: ProjectedTimes
    measured: TimeBreakdown
    plan: PassPlan
    index: IndexCreateResult
    merge_stats: MergeCCStats
    sort_stats: RadixSortStats
    cc_stats: LocalCCStats
    comm_stats: List[AllToAllStats] = field(default_factory=list)
    #: merged real-run telemetry; None unless the run enabled it
    telemetry: RunTelemetry | None = None
    #: pass indices that ran out-of-core (the spill schedule's True
    #: entries); empty for a fully in-memory run
    spilled_passes: List[int] = field(default_factory=list)

    @property
    def n_passes(self) -> int:
        return self.plan.n_passes

    @property
    def total_tuples(self) -> int:
        return self.work.total_tuples

    def projected_total(self) -> float:
        return self.projected.total_seconds

    def memory_per_task_bytes(self) -> int:
        """Section 3.7 memory model at this run's largest pass: for a
        budget-driven run, exactly what the pass planner accepted.

        Well-defined for degenerate runs too: a zero-chunk table
        contributes no chunk payload (the index tables still count).
        """
        return self.work.memory_at(self.plan.worst_tuples_per_task).total


class MetaPrep:
    """End-to-end METAPREP runner.  See :class:`PipelineConfig`."""

    def __init__(self, config: PipelineConfig | None = None) -> None:
        self.config = config or PipelineConfig()

    # ------------------------------------------------------------------
    def run(
        self,
        units: Sequence,
        output_dir: str | os.PathLike | None = None,
        index: IndexCreateResult | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
        artifact_store=None,
        events=None,
    ) -> PipelineResult:
        """Partition the reads of ``units`` (paths or (R1, R2) pairs).

        ``index`` may carry a prebuilt :class:`IndexCreateResult` (the
        tables are reusable across runs and machines — that is their
        point); otherwise IndexCreate runs first.

        ``checkpoint_dir`` enables per-pass checkpointing: an interrupted
        multipass run resumes after its last completed pass (see
        :mod:`repro.core.checkpoint`).  A resumed run's measured times and
        work volumes cover only the passes it actually executed.  The
        checkpoint is cleared on successful completion.  Checkpoints are
        executor-agnostic: a run interrupted under one engine may resume
        under the other.

        ``artifact_store`` injects a
        :class:`repro.service.store.ArtifactStore`: when ``index`` is not
        supplied, the IndexCreate product is fetched from (or computed
        into) the store's content-addressed cache instead of being rebuilt
        unconditionally.

        ``events`` injects a job-event sink: a callable receiving one
        dict per lifecycle event (``index_ready``, ``pass_start``,
        ``pass_complete``, ``run_complete``).  The sink may raise to
        abort the run between passes — the job service uses exactly this
        for cooperative cancellation and timeouts; any checkpoint already
        written stays on disk for the next attempt.

        With ``config.telemetry`` (or a ``config.telemetry_dir``) the run
        additionally records per-worker spans and hot-path counters
        (:mod:`repro.telemetry`); the merged record lands on
        ``result.telemetry`` and, when a directory is set, is exported as
        Perfetto trace / metrics snapshot / Prometheus textfile.
        """
        run = _Run(
            self.config, units, output_dir, index, checkpoint_dir,
            artifact_store, events,
        )
        if run.cfg.telemetry_enabled:
            run.collector = TelemetryCollector()
            telemetry.activate(run.collector)
        try:
            return _run(run)
        finally:
            if run.collector is not None:
                telemetry.deactivate()


@dataclass
class _Run:
    """One run's state: the caller's arguments, then each stage's product,
    which the stages after it read."""

    cfg: PipelineConfig
    units: Sequence
    output_dir: str | os.PathLike | None
    #: the caller's prebuilt tables until the index stage fills it
    index: IndexCreateResult | None
    checkpoint_dir: str | os.PathLike | None
    artifact_store: object
    events: Callable[[dict], None] | None
    collector: TelemetryCollector | None = None
    # plan stage
    plan: PassPlan = field(init=False)
    assignment: np.ndarray = field(init=False)
    spill_flags: List[bool] = field(init=False)
    work: RunWork = field(init=False)
    #: per-task forests; owner results replace them pass by pass
    forests: List[DisjointSetForest] = field(init=False)
    store: CheckpointStore | None = None
    fingerprint: str = ""
    start_pass: int = 0
    # passes stage
    executor: ExecutionBackend = field(init=False)
    #: measured seconds per step, summed over the workers that ran it
    times: TimeBreakdown = field(default_factory=TimeBreakdown)
    sort_stats: RadixSortStats = field(default_factory=RadixSortStats)
    cc_stats: LocalCCStats = field(default_factory=LocalCCStats)
    comm_stats: List[AllToAllStats] = field(default_factory=list)
    # merge stage
    merge_stats: MergeCCStats = field(init=False)
    partition: PartitionResult = field(init=False)

    @property
    def table(self) -> FastqPartTable:
        return self.index.fastqpart

    def emit(self, type_: str, **payload) -> None:
        if self.events is not None:
            self.events(dict(payload, type=type_))


def _run(run: _Run) -> PipelineResult:
    _index_stage(run)
    _plan_stage(run)
    _passes_stage(run)
    _merge_stage(run)
    _write_stage(run)
    return _result_stage(run)


def _index_stage(run: _Run) -> None:
    """IndexCreate, unless the caller or the artifact store has the tables."""
    cfg = run.cfg
    cache_hit = None
    if run.index is None:
        if run.artifact_store is not None:
            run.index, cache_hit = run.artifact_store.index_for(run.units, cfg)
        else:
            run.index = index_create(run.units, cfg.k, cfg.m, cfg.resolved_chunks())
    run.emit(
        "index_ready",
        cache_hit=cache_hit,
        n_chunks=run.table.n_chunks,
        n_reads=run.table.total_reads,
    )
    merhist = run.index.merhist
    if merhist.k != cfg.k or merhist.m != cfg.m:
        raise ValueError(
            f"index built for k={merhist.k}, m={merhist.m}; "
            f"config wants k={cfg.k}, m={cfg.m}"
        )


def _plan_stage(run: _Run) -> None:
    """Pass count and ranges, chunk slots, spill schedule and the forests —
    the forests and the first pass to run come from the checkpoint, if one
    is on disk."""
    cfg, table, merhist = run.cfg, run.table, run.index.merhist
    p_tasks, t_threads = cfg.n_tasks, cfg.n_threads
    n_passes = cfg.n_passes
    if n_passes is None:
        n_passes = passes_for_memory_budget(
            merhist, table, p_tasks, t_threads,
            cfg.tuple_bytes, cfg.memory_budget_per_task,
        )
    run.plan = plan_passes(merhist, n_passes, p_tasks, t_threads)
    run.assignment = chunk_assignment(table.n_chunks, p_tasks, t_threads)
    run.spill_flags = spill_schedule(
        run.plan, cfg.tuple_bytes, cfg.memory_budget_per_task, cfg.spill
    )
    if any(run.spill_flags):
        _LOG.info(
            "out-of-core: pass(es) %s run on the disk plane (mode=%s)",
            [s for s, f in enumerate(run.spill_flags) if f],
            cfg.spill,
        )
    run.work = RunWork(
        n_tasks=p_tasks,
        n_threads=t_threads,
        n_passes=n_passes,
        n_reads=table.total_reads,
        k=cfg.k,
        tuple_bytes=cfg.tuple_bytes,
    )
    run.work.fastq_chunk_bytes = table.peak_chunk_bytes
    run.work.table_bytes = table.nbytes + merhist.nbytes
    run.forests = [DisjointSetForest(table.total_reads) for _ in range(p_tasks)]
    if run.checkpoint_dir is None:
        return
    run.store = CheckpointStore(run.checkpoint_dir)
    run.fingerprint = config_fingerprint(cfg, table.total_reads, merhist.total_tuples)
    if run.store.exists():
        ckpt = run.store.load(run.fingerprint, n_passes)
        run.forests = [DisjointSetForest.from_parent_array(p) for p in ckpt.parents]
        run.start_pass = ckpt.passes_done
        _LOG.info(
            "resuming from checkpoint: %d/%d passes done", run.start_pass, n_passes
        )


def _passes_stage(run: _Run) -> None:
    """Every pass the checkpoint does not cover, each checkpointed as it
    completes, inside the one scope that owns the engine and the planes.

    Section 3.7 only changes *where* a pass's tuples live: the engine
    implies the in-memory plane, spilled passes take disk.  The scope
    unwinds in reverse: the engine first (workers drop their block
    attachments when they exit), then the planes release everything they
    back — pooled segments are unlinked (the /dev/shm leak guarantee),
    remote worker stores are swept best-effort, the spill dir goes with
    everything still in it — so an aborted run leaves zero orphan
    segments, sockets, or spill files.
    """
    cfg, n_passes = run.cfg, run.plan.n_passes
    with ExitStack() as scope:
        disk = (
            scope.enter_context(DiskBlockTransport(cfg.spill_dir))
            if any(run.spill_flags)
            else None
        )
        run.executor = create_engine(
            cfg.executor, cfg.max_workers, workers=cfg.worker_addresses
        )
        plane = scope.enter_context(create_block_transport(run.executor))
        scope.enter_context(run.executor)
        run.executor.set_shared(
            _WorkerContext(
                table=run.table,
                k=cfg.k,
                m=cfg.m,
                n_tasks=cfg.n_tasks,
                n_threads=cfg.n_threads,
                kmer_filter=cfg.kmer_filter,
                telemetry=run.collector is not None,
            )
        )
        for spec in run.plan.passes[run.start_pass:]:
            run.emit("pass_start", pass_index=spec.index, n_passes=n_passes)
            _run_pass(run, spec, disk if run.spill_flags[spec.index] else plane)
            if run.store is not None:
                run.store.save(
                    Checkpoint(
                        fingerprint=run.fingerprint,
                        n_passes_total=n_passes,
                        passes_done=spec.index + 1,
                        parents=[f.parent for f in run.forests],
                    )
                )
            run.emit("pass_complete", pass_index=spec.index, n_passes=n_passes)


def _merge_stage(run: _Run) -> None:
    """MergeCC over the per-task forests, then the component labels."""
    p_tasks, n_reads, work = run.cfg.n_tasks, run.table.total_reads, run.work
    with telemetry.span(StepNames.MERGECC, task=0, times=run.times) as merge:
        global_parent, run.merge_stats = merge_component_arrays(
            [f.parent for f in run.forests]
        )
    # the tree merge is a collective: every task participates over
    # the same interval, so each task row carries the span
    for p in range(1, p_tasks):
        telemetry.record_span(StepNames.MERGECC, merge.t0_ns, merge.t1_ns, task=p)
    work.merge_rounds = tree_merge_schedule(p_tasks)
    work.merge_bytes_per_send = 4 * n_reads
    work.merge_entries_by_task = np.asarray(
        [run.merge_stats.merges_by_task.get(p, 0) * n_reads for p in range(p_tasks)],
        dtype=np.int64,
    )
    work.broadcast_bytes = 4 * n_reads if p_tasks > 1 else 0
    run.partition = partition_from_parent(global_parent)


def _write_stage(run: _Run) -> None:
    """CC-I/O: the partitioned FASTQ files, or — when outputs are not
    written — their volume estimated as the input's bytes per slot."""
    cfg, table = run.cfg, run.table
    p_tasks, t_threads = cfg.n_tasks, cfg.n_threads
    if cfg.write_outputs and run.output_dir is not None:
        with telemetry.span(StepNames.CC_IO, times=run.times):
            write_partitions(
                run.partition, table, run.assignment, p_tasks, t_threads, run.output_dir
            )
        run.work.ccio_bytes = run.partition.bytes_written.copy()
    else:
        # float64 sums of byte counts are exact far beyond any input size
        est = np.bincount(
            run.assignment, weights=table.size1 + table.size2, minlength=p_tasks * t_threads
        )
        run.work.ccio_bytes = est.astype(np.int64).reshape(p_tasks, t_threads)


def _result_stage(run: _Run) -> PipelineResult:
    """Clear the checkpoint, project the work, export telemetry."""
    cfg, work, summary = run.cfg, run.work, run.partition.summary
    if run.store is not None:
        run.store.clear()
    run.emit(
        "run_complete",
        n_components=summary.n_components,
        n_reads=run.table.total_reads,
    )
    projected = TimingModel(get_machine(cfg.machine)).project(work)
    run_telemetry = None
    if run.collector is not None:
        run_telemetry = run.collector.finalize(n_tasks=cfg.n_tasks, projected=projected)
        if cfg.telemetry_dir is not None:
            from repro.telemetry.exporters import export_run_artifacts

            artifacts = export_run_artifacts(run_telemetry, cfg.telemetry_dir)
            _LOG.info(
                "telemetry artifacts: %s",
                ", ".join(str(p) for p in artifacts.values()),
            )
    _LOG.info(
        "run complete: %d reads, %d tuples, %d components (LC %.1f%%), "
        "projected %s %.2fs",
        run.table.total_reads,
        work.total_tuples,
        summary.n_components,
        summary.largest_component_percent,
        cfg.machine,
        projected.total_seconds,
    )
    return PipelineResult(
        config=cfg,
        n_reads=run.table.total_reads,
        partition=run.partition,
        work=work,
        projected=projected,
        measured=run.times,
        plan=run.plan,
        index=run.index,
        merge_stats=run.merge_stats,
        sort_stats=run.sort_stats,
        cc_stats=run.cc_stats,
        comm_stats=run.comm_stats,
        telemetry=run_telemetry,
        spilled_passes=[s for s, f in enumerate(run.spill_flags) if f],
    )


# ----------------------------------------------------------------------
# one pass: KmerGen -> exchange -> LocalSort + LocalCC
# ----------------------------------------------------------------------


def _run_pass(run: _Run, spec: PassSpec, plane: BlockTransport) -> None:
    """One pass over one owner block per task, released however it ends.

    The index tables fix, before any k-mer is enumerated, exactly how
    many tuples each chunk contributes to each owner task and where in
    the owner's block they land (section 3.2.2/3.3), so chunk writers
    never contend and never handshake.  The plane places each block:
    a resident pool block in-host, the hosting worker's store under the
    socket plane (owner d's block lives where owner d's jobs run), a
    preallocated spill file under the disk plane.
    """
    cfg = run.cfg
    per_chunk = chunk_send_counts(
        run.table, spec.task_edges, cfg.n_tasks, spec.bin_lo, spec.bin_hi
    )
    offsets, sender_splits, totals = recv_write_offsets(
        per_chunk, run.assignment, cfg.n_tasks, cfg.n_threads
    )
    handles = [plane.publish(cfg.k, int(totals[d]), owner=d) for d in range(cfg.n_tasks)]
    try:
        _kmergen(run, spec, per_chunk, offsets, handles)
        if cfg.localcc_opt and spec.index > 0:
            _localcc_opt_ids(run, spec, plane, handles, sender_splits)
        _exchange(run, spec, plane, handles, sender_splits)
        _sort_cc(run, spec, handles, totals)
    finally:
        for handle in handles:
            plane.release(handle)


def _kmergen(
    run: _Run, spec: PassSpec, per_chunk: np.ndarray, offsets: np.ndarray,
    handles: List[PlaneHandle],
) -> None:
    """KmerGen (+ I/O): one job per chunk, results in chunk order whichever
    worker ran them.  Payloads carry block handles, never tuples."""
    cfg, table, assignment, work = run.cfg, run.table, run.assignment, run.work
    p_tasks, t_threads = cfg.n_tasks, cfg.n_threads
    jobs = [
        _ChunkJob(
            chunk=c,
            task=int(assignment[c]) // t_threads,
            bin_lo=spec.bin_lo,
            bin_hi=spec.bin_hi,
            task_edges=spec.task_edges,
            expected_counts=per_chunk[c],
            write_offsets=offsets[c],
            blocks=handles,
        )
        for c in range(table.n_chunks)
    ]
    actual_counts = np.zeros((p_tasks, t_threads, p_tasks), dtype=np.int64)
    results = run.executor.map(_kmergen_chunk_task, jobs)
    for job, res in zip(jobs, results, strict=True):
        p, t = divmod(int(assignment[job.chunk]), t_threads)
        run.times.merge(res.times)
        work.kmergen_io_bytes[p, t] += table.chunk_bytes(job.chunk)
        work.fastq_parse_bytes[p, t] += table.chunk_bytes(job.chunk)
        work.kmergen_positions_scanned[p, t] += res.n_positions
        work.kmergen_tuples[p, t] += int(res.counts.sum())
        actual_counts[p, t, :] += res.counts

    # each job checked its own counts; the sum by slot also catches a
    # result that came back against the wrong job
    expected = send_counts_matrix(
        table, assignment, spec.task_edges, p_tasks, t_threads, spec.bin_lo, spec.bin_hi
    )
    if not np.array_equal(actual_counts, expected):
        p, t, d = (int(x) for x in np.argwhere(actual_counts != expected)[0])
        raise StaticCountMismatch(
            f"pass {spec.index}: task {p} thread {t} -> task {d}: "
            f"produced {actual_counts[p, t, d]} tuples, index "
            f"predicted {expected[p, t, d]}"
        )


def _localcc_opt_ids(
    run: _Run, spec: PassSpec, plane: BlockTransport, handles: List[PlaneHandle],
    sender_splits: np.ndarray,
) -> None:
    """LocalCC-Opt: rewrite read ids to component roots in place, one
    sender region at a time with that sender's forest — forest state never
    crosses the executor boundary, and the mapping equals the sequential
    chunk-by-chunk scan (find_many is pure, elementwise)."""
    p_tasks = run.cfg.n_tasks
    for d in range(p_tasks):
        with telemetry.span(StepNames.KMERGEN, task=d, aux=spec.index, times=run.times):
            for p in range(p_tasks):
                lo_i, hi_i = int(sender_splits[p, d]), int(sender_splits[p + 1, d])
                if hi_i > lo_i:
                    plane.map_ids(
                        handles[d],
                        lo_i,
                        hi_i,
                        partial(map_ids_to_components, forest=run.forests[p]),
                    )


def _exchange(
    run: _Run, spec: PassSpec, plane: BlockTransport, handles: List[PlaneHandle],
    sender_splits: np.ndarray,
) -> None:
    """KmerGen-Comm.  The tuples already sit in their owners' blocks (the
    chunk writers' offset writes *are* the exchange); what remains is the
    byte accounting, reproduced exactly from the static counts, and the
    stage barrier between the blocks' writers and consumers (the disk
    plane's fsync + rename; free on memory planes)."""
    with telemetry.span(StepNames.KMERGEN_COMM, aux=spec.index, times=run.times):
        by_task = sender_splits[1:] - sender_splits[:-1]
        stats = block_exchange_stats(by_task, run.cfg.tuple_bytes)
    run.comm_stats.append(stats)
    run.work.comm_bytes_matrix += stats.bytes_matrix
    run.work.comm_stage_max_bytes.append(list(stats.max_message_bytes_per_stage))
    plane.seal(handles)


def _sort_cc(
    run: _Run, spec: PassSpec, handles: List[PlaneHandle], totals: np.ndarray
) -> None:
    """LocalSort + LocalCC: one job per owner task d.  The serial engine
    mutates forests[d] in place, the others round-trip a pickled copy —
    either way the result's parent is the post-pass forest state."""
    cfg, work = run.cfg, run.work
    jobs = [
        _OwnerJob(
            task=d,
            pass_index=spec.index,
            n_received=int(totals[d]),
            parent=run.forests[d].parent,
            thread_edges=spec.thread_edges[d],
            block=handles[d],
        )
        for d in range(cfg.n_tasks)
    ]
    # the timing model uses the paper's fixed pass count
    nominal_passes = radix_passes_for(cfg.k)
    edges = work.cc_edges_first_pass if spec.index == 0 else work.cc_edges_later_passes
    results = run.executor.map(_owner_sort_cc_task, jobs)
    for job, res in zip(jobs, results, strict=True):
        d = job.task
        run.forests[d] = DisjointSetForest.wrap(res.parent)
        run.times.merge(res.times)
        # partition scatter work: each thread handles ~1/T of the stream
        work.partition_tuples[d, :] += int(np.ceil(job.n_received / cfg.n_threads))
        work.sort_tuple_passes[d, :] += res.part_lengths * nominal_passes
        edges[d, :] += res.edges_by_thread
        run.sort_stats.merge(res.sort_stats)
        run.cc_stats.merge(res.cc_stats)

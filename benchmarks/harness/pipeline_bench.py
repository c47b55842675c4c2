"""Pipeline workloads: timed ``metaprep run`` subprocesses (end to end) and
the traced pass that measures each ``repro`` package from outside."""

from __future__ import annotations

import os
import pickle
import shutil
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from benchmarks.harness.trace import Recorder
from benchmarks.harness.workloads import (
    M_MER,
    N_TASKS,
    N_THREADS,
    Context,
    Reference,
    canonical,
    hash_dir,
    make_dataset,
    outputs_match_reference,
    pipeline_config,
    reference_partition,
    run_cli,
)
from repro.baselines.ap_lb import APLBPartitioner
from repro.baselines.kmc2 import Kmc2Counter
from repro.baselines.numa_sort import comparator_sort_tuples
from repro.cc.dsf import DisjointSetForest
from repro.cc.localcc import edges_from_sorted_runs
from repro.cc.mergecc import merge_component_arrays
from repro.core.partition import partition_from_parent, write_partitions
from repro.core.pipeline import MetaPrep
from repro.index.create import index_create
from repro.index.fastqpart import load_chunk_reads
from repro.index.offsets import chunk_assignment
from repro.kmers.engine import enumerate_canonical_kmers
from repro.perf.calibrate import calibrate
from repro.runtime import transport as tp
from repro.runtime.buffers import HeapBufferPool, SharedMemoryBufferPool, attach_block
from repro.runtime.spill import read_spill, write_spill
from repro.runtime.work import StepNames
from repro.seqio.records import ReadBatch
from repro.sort.radix import radix_sort_tuples


@dataclass
class PipelineState:
    ds: object
    ref: Reference
    workers: list = field(default_factory=list)  # Popen, distributed only
    addresses: tuple = ()


def setup(ctx: Context) -> PipelineState:
    ds = make_dataset(ctx)
    state = PipelineState(ds, reference_partition(ds, ctx.workload.k))
    if ctx.workload.executor == "distributed":
        spawned = [ctx.spawn_daemon("worker") for _ in range(N_TASKS)]
        state.workers = [proc for proc, _ in spawned]
        state.addresses = tuple(address for _, address in spawned)
    if ctx.workload.executor != "serial":
        # the first multi-process run after the single-threaded set-up is
        # ~20% slower here (fresh daemons import lazily, the second vCPU
        # has to wake up); neither is something each `metaprep run` pays
        warm_up = run_cli(ctx, ds, ctx.scratch / "out_warmup", workers=state.addresses)
        ctx.check("untimed warm-up run exits 0", warm_up.ok)
    return state


def teardown(ctx: Context, state: PipelineState) -> None:
    for proc in state.workers:
        ctx.stop(proc)


def _proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# end to end (tracing off)
# ----------------------------------------------------------------------
def end_to_end(ctx: Context, st: PipelineState, seconds: float, reps: int | None) -> dict:
    """Repeat one fresh ``metaprep run`` until ``seconds`` have been
    measured (at least twice), or exactly ``reps`` times."""
    runs, hashes = [], []
    while (len(runs) < reps) if reps else (
        len(runs) < 2 or sum(r.wall_s for r in runs) < seconds
    ):
        out = ctx.scratch / f"out{len(runs)}"
        run = run_cli(ctx, st.ds, out, workers=st.addresses)
        runs.append(run)
        if ctx.check("metaprep run exits 0", run.ok):
            ctx.check("partition files match the reference partition",
                      outputs_match_reference(out, st.ref))
            hashes.append(hash_dir(out))
        shutil.rmtree(out, ignore_errors=True)
    ctx.check("every repetition wrote identical bytes", len(set(hashes)) == 1)
    return {
        "wall_s": [r.wall_s for r in runs],
        "tuples_per_s": [st.ref.n_tuples / r.wall_s for r in runs],
        # the run's own process tree; distributed workers are daemons
        # outside it, whose footprint grows with every run they serve
        "peak_rss_mb": [r.rss_mb for r in runs],
    }


# ----------------------------------------------------------------------
# per layer (traced pass)
# ----------------------------------------------------------------------
def _import_probe(ctx: Context, rec: Recorder) -> float:
    """Interpreter + ``import repro.cli, repro.core.pipeline`` minus a bare
    interpreter, medians of three fresh processes each."""
    def probe(name: str, code: str) -> float:
        for _ in range(1 if ctx.quick else 3):
            with rec.span(name):
                subprocess.run([sys.executable, "-c", code], env=ctx.env(), check=True)
        return median(rec.durations(name))

    return probe("cli.import", "import repro.cli, repro.core.pipeline") - probe(
        "cli.interpreter", "pass")


def _replay(ctx, ds, rec, tag: str, index, **overrides):
    """In-process ``MetaPrep.run`` on the workload's input and config."""
    out = ctx.scratch / f"out_{tag}"
    cfg = pipeline_config(ctx.workload, spill_dir=str(ctx.scratch), **overrides)
    with rec.span(f"core.run.{tag}"):
        result = MetaPrep(cfg).run(ds.units, out, index=index)
    return result, hash_dir(out), rec.durations(f"core.run.{tag}")[-1]


def _counts(result) -> tuple:
    return (result.total_tuples, result.sort_stats.passes_executed,
            result.sort_stats.passes_skipped, result.cc_stats.n_edges,
            result.cc_stats.n_unions)


def stage_replay(ctx: Context, ds, ref: Reference, rec: Recorder):
    """``index_create`` then ``MetaPrep.run`` in this process on the serial
    engine, timed from outside; step seconds read from ``result.measured``.
    Returns (metrics, index, result, sha256 of the written partitions)."""
    wl, m = ctx.workload, {}
    with rec.span("index.create"):
        index = index_create(ds.units, wl.k, M_MER, pipeline_config(wl).resolved_chunks())
    m["index.create_s"] = rec.total("index.create")
    m["index.reads_per_s"] = index.fastqpart.total_reads / m["index.create_s"]
    result, replay_hash, run_s = _replay(ctx, ds, rec, "replay", index)
    steps = result.measured
    m["core.run_s"] = run_s
    for key, step in (("kmergen_io", StepNames.KMERGEN_IO), ("kmergen", StepNames.KMERGEN),
                      ("comm", StepNames.KMERGEN_COMM), ("localsort", StepNames.LOCALSORT),
                      ("localcc", StepNames.LOCALCC), ("mergecc", StepNames.MERGECC),
                      ("ccio", StepNames.CC_IO)):
        m[f"core.step.{key}_s"] = steps.get(step)
    m["core.driver_resid_s"] = run_s - steps.total
    ctx.check("replay labels equal the reference bit for bit",
              np.array_equal(canonical(result.partition.labels), ref.labels))
    ctx.check("replay tuple count equals the reference's",
              result.total_tuples == ref.n_tuples)
    return m, index, result, replay_hash


def per_layer(ctx: Context, st: PipelineState, rec: Recorder) -> dict:
    wl, m = ctx.workload, {}
    serial_engine = wl.executor == "serial"
    m["cli.import_s"] = _import_probe(ctx, rec)

    # one untraced run of the real program: its wall is what the layers
    # below must add up to, its bytes are what they must reproduce
    out = ctx.scratch / "out_cli"
    cpu_before = sum(_proc_cpu_s(p.pid) for p in st.workers)
    with rec.span("cli.run"):
        cli = run_cli(ctx, st.ds, out, workers=st.addresses)
    cli_cpu = cli.cpu_s + sum(_proc_cpu_s(p.pid) for p in st.workers) - cpu_before
    cli_hash = hash_dir(out) if ctx.check("metaprep run exits 0", cli.ok) else None
    m["cli.wall_s"] = cli.wall_s

    replay, index, result, replay_hash = stage_replay(ctx, st.ds, st.ref, rec)
    m.update(replay)
    run_s = m["core.run_s"]
    if serial_engine:
        m["core.unattributed_s"] = (
            cli.wall_s - m["cli.import_s"] - m["index.create_s"] - run_s)
        m["core.unattributed_share"] = m["core.unattributed_s"] / cli.wall_s
    ctx.check("CLI and in-process serial replay wrote identical bytes",
              cli_hash == replay_hash)

    # the same work again on the workload's own engine with telemetry on:
    # exact counters, the telemetry cost, and the repeat-exactly assertion
    engine = dict(executor=wl.executor, telemetry=True)
    if wl.executor == "process":
        engine["max_workers"] = N_TASKS
    if wl.executor == "distributed":
        engine["worker_addresses"] = st.addresses
    again, again_hash, again_s = _replay(ctx, st.ds, rec, "telemetry", index, **engine)
    counters = again.telemetry.counter_totals()
    ctx.check("counts repeat exactly across repetitions", _counts(result) == _counts(again))
    ctx.check("labels and bytes repeat exactly across repetitions",
              np.array_equal(result.partition.labels, again.partition.labels)
              and replay_hash == again_hash)
    if serial_engine:
        m["telemetry.overhead_pct"] = 100.0 * (again_s - run_s) / run_s
    m["runtime.spill.bytes_written"] = counters.get("spill.bytes_written", 0)
    if wl.executor == "distributed":
        predicted = sum(s.wire_bytes_total for s in again.comm_stats)
        m["runtime.net.bytes_sent"] = counters.get("net.bytes_sent", 0)
        m["runtime.net.frames"] = counters.get("net.frames", 0)
        m["runtime.comm.wire_bytes"] = counters.get("comm.wire_bytes", 0)
        ctx.check("wire bytes sent equal the exchange model's prediction",
                  m["runtime.net.bytes_sent"] == m["runtime.comm.wire_bytes"] == predicted)

    if not serial_engine:
        serial = run_cli(ctx, st.ds, ctx.scratch / "out_serial", executor="serial")
        ctx.check("serial comparison run exits 0", serial.ok)
        m["runtime.executor.speedup_vs_serial"] = serial.wall_s / cli.wall_s
        m["runtime.executor.efficiency"] = serial.wall_s / cli.wall_s / N_TASKS
        m["runtime.executor.cpu_s"] = cli_cpu
        m["runtime.executor.cpu_overhead_s"] = cli_cpu - serial.cpu_s

    m.update(_kernels(ctx, st, rec, index, result, cli_hash))
    return m


def _kernels(ctx, st, rec, index, result, cli_hash) -> dict:
    """Each kernel alone on the workload's real data, then the in-tree
    yardsticks and the transport/spill/buffer micro-measurements that the
    workload's engine puts on the blocking path."""
    wl, m, table = ctx.workload, {}, index.fastqpart
    chunks = range(table.n_chunks) if wl.kernels else range(1)
    with rec.span("seqio.chunk_load"):
        batches = [load_chunk_reads(table, c, keep_metadata=False) for c in chunks]
    merged = ReadBatch.concatenate(batches)
    with rec.span("kmers.enumerate"):
        tuples = enumerate_canonical_kmers(merged, wl.k)
    if wl.kernels:
        m["seqio.chunk_load_s"] = rec.total("seqio.chunk_load")
        m["seqio.reads_per_s"] = merged.n_reads / m["seqio.chunk_load_s"]
        m["kmers.enumerate_s"] = rec.total("kmers.enumerate")
        m["kmers.tuples"] = len(tuples)
        m["kmers.tuples_per_s"] = len(tuples) / m["kmers.enumerate_s"]
        ctx.check("kernel tuple count equals the reference's",
                  len(tuples) == st.ref.n_tuples)
        m.update(_sort_cc_write(ctx, st, rec, index, tuples, cli_hash))
    if wl.yardsticks:
        m.update(_yardsticks(ctx, rec, batches, merged, tuples, result, m["sort.radix_s"]))
    if wl.executor == "process":
        m["runtime.buffers.exchange_ns_per_tuple"] = _shm_exchange_ns(wl.k, tuples)
    if wl.executor == "distributed":
        m["runtime.transport.frame_mb_per_s"] = _frame_mb_per_s()
    if wl.spill == "always":
        m.update(_spill_rates(ctx, wl.k, tuples))
    return m


def _sort_cc_write(ctx, st, rec, index, tuples, cli_hash) -> dict:
    m, n_reads = {}, len(st.ref.labels)
    with rec.span("sort.radix"):
        ordered, sort_stats = radix_sort_tuples(tuples)
    m["sort.radix_s"] = rec.total("sort.radix")
    m["sort.passes_run"] = sort_stats.passes_executed
    m["sort.passes_skipped"] = sort_stats.passes_skipped
    m["sort.tuple_passes_per_s"] = (
        len(tuples) * sort_stats.passes_executed / m["sort.radix_s"])
    with rec.span("cc.edges"):
        us, vs, edge_stats = edges_from_sorted_runs(ordered)
    # two forests over half the edges each, as two owner tasks would hold
    forests, unions, half = [], 0, len(us) // 2
    with rec.span("cc.uf"):
        for part in (slice(0, half), slice(half, None)):
            forest = DisjointSetForest(n_reads)
            unions += forest.process_edges(us[part], vs[part])[0]
            forests.append(forest)
    with rec.span("cc.merge"):
        parent, _ = merge_component_arrays([f.parent for f in forests])
    m["cc.edges"] = edge_stats.n_edges
    m["cc.unions"] = unions
    m["cc.uf_s"] = rec.total("cc.uf")
    m["cc.uf_edges_per_s"] = len(us) / m["cc.uf_s"]
    m["cc.merge_s"] = rec.total("cc.merge")
    partition = partition_from_parent(parent)
    ctx.check("kernel-by-kernel labels equal the reference bit for bit",
              np.array_equal(canonical(partition.labels), st.ref.labels))
    out = ctx.scratch / "out_write"
    table = index.fastqpart
    with rec.span("core.write"):
        write_partitions(partition, table,
                         chunk_assignment(table.n_chunks, N_TASKS, N_THREADS),
                         N_TASKS, N_THREADS, out)
    m["core.write_s"] = rec.total("core.write")
    m["core.write_reads_per_s"] = 2 * n_reads / m["core.write_s"]
    ctx.check("write_partitions alone reproduces the CLI's bytes",
              hash_dir(out) == cli_hash)
    return m


def _yardsticks(ctx, rec, batches, merged, tuples, result, radix_s) -> dict:
    """The EXPERIMENTS.md comparators, so their rows become a trajectory."""
    wl, steps = ctx.workload, result.measured
    with rec.span("baselines.numa_sort"):
        comparator_sort_tuples(tuples)
    with rec.span("baselines.ap_lb"):
        aplb = APLBPartitioner(wl.k).partition(merged)
    with rec.span("baselines.kmc2"):
        kmc = Kmc2Counter(wl.k, m=7, n_bins=128).count(batches)
    with rec.span("perf.calibrate"):
        rates = calibrate(quick=True)
    ours_stage = (steps.get(StepNames.KMERGEN) + steps.get(StepNames.KMERGEN_COMM)
                  + steps.get(StepNames.LOCALSORT))
    m = {
        # radix throughput / comparator throughput (paper section 4.2.2: 0.78)
        "sort.vs_comparator_ratio": rec.total("baselines.numa_sort") / radix_s,
        # AP_LB seconds / our step total (paper Table 4: 2.25-4.22)
        "cc.vs_aplb_ratio": aplb.seconds / steps.total,
        # KMC 2 stages 1+2 / our KmerGen + Comm + LocalSort (paper Fig. 9)
        "baselines.kmc2_ratio": kmc.total_seconds / ours_stage,
    }
    m.update({f"perf.calib.{name}": rate for name, rate in rates.as_dict().items()})
    return m


def _best_of(fn, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _shm_exchange_ns(k: int, tuples) -> float:
    """One block write plus a pickled descriptor attach, per tuple (the
    hop ``benchmarks/test_dataplane.py`` times)."""
    pool = SharedMemoryBufferPool()

    def hop():
        block = pool.allocate(k, len(tuples))
        try:
            block.write(0, tuples)
            wire = pickle.dumps(block.descriptor(), protocol=pickle.HIGHEST_PROTOCOL)
            int(attach_block(pickle.loads(wire)).view(0, len(tuples)).read_ids[-1])
        finally:
            pool.release(block)

    try:
        return _best_of(hop) / len(tuples) * 1e9
    finally:
        pool.close()


def _frame_mb_per_s(frames: int = 32, size: int = 1 << 20) -> float:
    payload = os.urandom(size)
    left, right = socket.socketpair()
    try:
        def send():
            for _ in range(frames):
                tp.send_frame(left, tp.FRAME_OK, payload)

        sender = threading.Thread(target=send)
        t0 = time.perf_counter()
        sender.start()
        for _ in range(frames):
            tp.recv_frame(right)
        seconds = time.perf_counter() - t0
        sender.join(timeout=30)
    finally:
        left.close()
        right.close()
    return frames * size / 1e6 / seconds


def _spill_rates(ctx: Context, k: int, tuples) -> dict:
    path = ctx.scratch / "probe.spill"
    with HeapBufferPool() as pool:
        block = pool.allocate(k, len(tuples))
        block.write(0, tuples)
        write_s = _best_of(lambda: write_spill(path, block), rounds=3)
        mb = path.stat().st_size / 1e6
        read_s = _best_of(lambda: pool.release(read_spill(path, pool)), rounds=3)
        pool.release(block)
    return {"runtime.spill.write_mb_per_s": mb / write_s,
            "runtime.spill.read_mb_per_s": mb / read_s}

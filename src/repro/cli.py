"""``metaprep`` command line interface.

Subcommands::

    metaprep dataset --name HG --workdir data/        # build an analogue
    metaprep index   --r1 a_R1.fastq --r2 a_R2.fastq  # IndexCreate only
    metaprep run     --r1 a_R1.fastq --r2 a_R2.fastq --out parts/ \
                     --k 27 --tasks 4 --threads 8 --passes 2
    metaprep assemble --fastq parts/lc_p0_t0.fastq     # MiniAssembler
    metaprep trace   runs/tele/                        # inspect telemetry
    metaprep worker  --port 9201                       # distributed-engine daemon

Service verbs (the partition job service; see :mod:`repro.service`)::

    metaprep serve   --spool /var/metaprep            # run the daemon
    metaprep submit  --spool /var/metaprep --r1 a_R1.fastq --r2 a_R2.fastq
    metaprep status  --spool /var/metaprep [--job j-...]
    metaprep result  --spool /var/metaprep --job j-... [--out labels.txt]
    metaprep cancel  --spool /var/metaprep --job j-...
    metaprep gateway --spool /var/metaprep --port 9300  # HTTP API front end
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Sequence

from repro.util.logging import set_verbosity


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-v", "--verbose", action="store_true")


def _units_from_args(args) -> List:
    if args.r2:
        return [(args.r1, args.r2)]
    return [args.r1]


def cmd_dataset(args) -> int:
    from repro.datasets.registry import DATASETS, build_dataset

    if args.list:
        for name, spec in DATASETS.items():
            print(f"{name}: {spec.description} ({spec.n_pairs} pairs)")
        return 0
    ds = build_dataset(args.name, args.workdir, seed=args.seed, scale=args.scale)
    print(f"built {ds.name}: {ds.n_pairs} pairs -> {ds.r1_path}, {ds.r2_path}")
    return 0


def cmd_index(args) -> int:
    from repro.index.create import index_create

    result = index_create(
        _units_from_args(args),
        k=args.k,
        m=args.m,
        n_chunks=args.chunks,
        output_dir=args.out,
    )
    print(
        f"IndexCreate: {result.fastqpart.n_chunks} chunks, "
        f"{result.fastqpart.total_reads} reads, "
        f"{result.merhist.total_tuples} tuples; "
        f"FASTQPart {result.fastqpart_seconds:.2f}s, "
        f"merHist {result.merhist_seconds:.2f}s"
    )
    if result.merhist_path:
        print(f"tables: {result.merhist_path}, {result.fastqpart_path}")
    return 0


def cmd_run(args) -> int:
    from repro.core.config import PipelineConfig
    from repro.core.pipeline import MetaPrep
    from repro.core.report import format_breakdown, format_partition_summary
    from repro.index.passplan import BudgetTooSmall
    from repro.kmers.filter import FrequencyFilter

    budget = (
        int(args.budget_mb * 1024 * 1024)
        if args.budget_mb is not None
        else None
    )
    # --budget-mb without --passes derives the pass count (section 3.7);
    # with neither, the historical single pass
    n_passes = args.passes
    if n_passes is None and budget is None:
        n_passes = 1
    try:
        # an option value the config rejects is a usage error, as is a
        # budget no pass count fits: one line, exit status 2
        config = PipelineConfig(
            k=args.k,
            m=args.m,
            n_tasks=args.tasks,
            n_threads=args.threads,
            n_passes=n_passes,
            memory_budget_per_task=budget,
            n_chunks=args.chunks,
            kmer_filter=FrequencyFilter.parse(args.filter),
            machine=args.machine,
            write_outputs=args.out is not None,
            executor=args.executor,
            max_workers=args.workers,
            worker_addresses=tuple(args.worker or ()),
            telemetry_dir=args.telemetry,
            spill=args.spill,
            spill_dir=args.spill_dir,
        )
    except ValueError as exc:
        print(f"metaprep run: {exc}", file=sys.stderr)
        return 2
    try:
        result = MetaPrep(config).run(_units_from_args(args), output_dir=args.out)
    except BudgetTooSmall as exc:
        print(f"metaprep run: {exc}", file=sys.stderr)
        return 2
    if result.spilled_passes:
        print(
            f"out-of-core: pass(es) {result.spilled_passes} spilled to disk"
        )
    print(format_partition_summary(result.partition.summary))
    print()
    print(format_breakdown(result.measured, "measured step times (this host)"))
    print()
    print(
        format_breakdown(
            result.projected.breakdown(),
            f"projected step times ({args.machine}, P={args.tasks}, "
            f"T={args.threads}, S={result.n_passes})",
        )
    )
    if result.telemetry is not None:
        from repro.core.report import format_gap_report
        from repro.telemetry.compare import compare_measured_projected

        print()
        print(format_gap_report(compare_measured_projected(result.telemetry)))
        if args.telemetry:
            print(f"telemetry artifacts written under {args.telemetry}")
    if args.out:
        print(f"\npartitions written under {args.out}")
    return 0


def cmd_trace(args) -> int:
    """Inspect a persisted telemetry run: re-export the Perfetto trace
    and print the measured-vs-projected gap table."""
    from pathlib import Path

    from repro.core.report import format_gap_report, format_table
    from repro.telemetry.collect import RUN_FILENAME, RunTelemetry
    from repro.telemetry.compare import compare_measured_projected
    from repro.telemetry.exporters import TRACE_FILENAME, write_measured_trace

    run_dir = Path(args.run)
    record = run_dir / RUN_FILENAME if run_dir.is_dir() else run_dir
    if not record.is_file():
        print(f"metaprep trace: no {RUN_FILENAME} at {run_dir}", file=sys.stderr)
        return 2
    run = RunTelemetry.load(record)
    out = Path(args.out) if args.out else record.parent / TRACE_FILENAME
    n_events = write_measured_trace(run, out)
    print(
        f"{record}: {len(run.spans)} spans over tasks {run.tasks_seen()}; "
        f"{n_events} trace events -> {out}"
    )
    counters = run.counter_totals()
    if counters:
        print()
        print(
            format_table(
                ["counter", "total"],
                [[name, v] for name, v in counters.items()],
            )
        )
    if run.projected is not None:
        print()
        print(format_gap_report(compare_measured_projected(run)))
    return 0


def cmd_assemble(args) -> int:
    from repro.assembly.assembler import AssemblyConfig, MiniAssembler

    config = AssemblyConfig(
        k=args.k, min_count=args.min_count, min_contig_length=args.min_len
    )
    result = MiniAssembler(config).assemble_files(args.fastq)
    s = result.stats
    print(
        f"assembled {result.n_reads} reads in {result.seconds:.2f}s: "
        f"{s.n_contigs} contigs, {s.total_mbp:.3f} Mbp, "
        f"max {s.max_bp} bp, N50 {s.n50} bp"
    )
    if args.out:
        from repro.seqio.fasta import write_contigs

        write_contigs(args.out, result.contigs)
        print(f"contigs written to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    from repro.perf.calibrate import calibrate
    from repro.runtime.machines import get_machine

    rates = calibrate(quick=not args.full)
    machine = get_machine(args.machine)
    print("substrate rates on this host (single thread) vs machine model:")
    for name, ours in rates.as_dict().items():
        modeled = getattr(machine, name)
        print(
            f"  {name:<12} {ours / 1e6:8.2f} M ops/s   "
            f"({args.machine} model: {modeled / 1e6:.0f} M)"
        )
    return 0


def cmd_spectrum(args) -> int:
    from repro.kmers.counter import count_canonical_kmers
    from repro.kmers.spectrum_analysis import (
        analyze_spectrum,
        recommended_filter_band,
    )
    from repro.seqio.fastq import read_fastq
    from repro.seqio.records import ReadBatch

    batch = ReadBatch.from_sequences(
        [r.sequence for path in args.fastq for r in read_fastq(path)]
    )
    spectrum = count_canonical_kmers(batch, args.k)
    report = analyze_spectrum(spectrum)
    print(f"k-mer spectrum (k={args.k}) over {batch.n_reads} reads:")
    print(f"  distinct k-mers:       {spectrum.n_distinct}")
    print(f"  coverage peak:         {report.coverage_peak}x")
    print(f"  error trough:          count <= {report.trough}")
    print(f"  error k-mers:          {report.error_kmers}")
    print(f"  genomic k-mers:        {report.genomic_kmers}")
    print(f"  genome size estimate:  {report.genome_size_estimate} bp")
    print(
        f"  erroneous occurrences: "
        f"{100 * report.error_occurrence_fraction:.2f}%"
    )
    lo, hi = recommended_filter_band(report)
    print(f"  suggested --filter:    '{lo}:{hi}'")
    return 0


def cmd_normalize(args) -> int:
    from repro.kmers.normalization import DigitalNormalizer
    from repro.seqio.fastq import read_fastq, write_fastq
    from repro.seqio.records import ReadBatch

    records = read_fastq(args.fastq)
    batch = ReadBatch.from_records(records)
    normalizer = DigitalNormalizer(k=args.k, coverage=args.coverage)
    kept, stats = normalizer.normalize(batch)
    print(
        f"digital normalization (k={args.k}, C={args.coverage}): kept "
        f"{stats.n_reads_kept}/{stats.n_reads_in} reads "
        f"({100 * stats.keep_fraction:.1f}%), "
        f"{stats.n_distinct_kmers} distinct k-mers retained"
    )
    if args.out:
        write_fastq(args.out, list(kept))
        print(f"normalized reads written to {args.out}")
    return 0


def cmd_serve(args) -> int:
    from repro.service.daemon import ServeDaemon
    from repro.service.store import ArtifactStore

    store = None
    if args.store_budget_mb is not None:
        from repro.service.daemon import STORE_DIR
        from pathlib import Path

        store = ArtifactStore(
            Path(args.spool) / STORE_DIR,
            size_budget_bytes=int(args.store_budget_mb * 1024 * 1024),
        )
    daemon = ServeDaemon(
        args.spool,
        store=store,
        max_concurrent=args.max_jobs,
        executor=args.executor,
        max_workers=args.workers,
        worker_addresses=tuple(args.worker) if args.worker else None,
    )
    if args.once:
        daemon.run_until_idle(timeout=args.drain_timeout)
        print(f"spool drained: {len(daemon.queue.records)} job(s) processed")
        return 0
    print(f"metaprep serve: watching {args.spool} (ctrl-C to stop)")
    try:
        daemon.serve_forever(poll_seconds=args.poll)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("stopped; queue state is persisted and will recover on restart")
    return 0


def cmd_worker(args) -> int:
    from repro.runtime.worker import serve_worker

    serve_worker(host=args.host, port=args.port, advertise=args.advertise)
    return 0


def cmd_gateway(args) -> int:
    from pathlib import Path

    from repro.gateway.app import GatewayApp
    from repro.gateway.server import GatewayServer
    from repro.gateway.tenants import TenantRegistry
    from repro.service.daemon import STORE_DIR, ServeDaemon
    from repro.service.store import ArtifactStore

    store = None
    if args.store_budget_mb is not None:
        store = ArtifactStore(
            Path(args.spool) / STORE_DIR,
            size_budget_bytes=int(args.store_budget_mb * 1024 * 1024),
        )
    daemon = ServeDaemon(
        args.spool,
        store=store,
        max_concurrent=args.max_jobs,
        executor=args.executor,
        max_workers=args.workers,
    )
    registry = TenantRegistry.load(args.tenants_file)
    app = GatewayApp(
        daemon, registry=registry, max_queue_depth=args.max_queue_depth
    )
    daemon.extra_counters = app.counters.snapshot
    server = GatewayServer(
        app, host=args.host, port=args.port, max_inflight=args.max_inflight
    )
    daemon.start_background(poll_seconds=args.poll)
    address = server.start()
    print(f"metaprep gateway listening on {address}", flush=True)
    if args.tenants_file:
        print(f"tenants: {', '.join(registry.tenant_names())}", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        print("stopping gateway")
    finally:
        server.stop()
        daemon.stop_background()
    return 0


def cmd_submit(args) -> int:
    from repro.service.client import ServiceClient

    config = {
        "k": args.k,
        "m": args.m,
        "n_tasks": args.tasks,
        "n_threads": args.threads,
        "n_passes": args.passes,
        "kmer_filter": args.filter,
    }
    if args.chunks is not None:
        config["n_chunks"] = args.chunks
    client = ServiceClient(args.spool)
    job_id = client.submit(
        _units_from_args(args),
        config=config,
        max_retries=args.retries,
        timeout_seconds=args.timeout,
    )
    print(job_id)
    if args.wait:
        status = client.wait(job_id, timeout=args.wait)
        print(f"{job_id}: {status['state']}")
        return 0 if status["state"] == "succeeded" else 1
    return 0


def cmd_status(args) -> int:
    from repro.core.report import format_job_metrics, format_job_table
    from repro.service.client import ServiceClient

    client = ServiceClient(args.spool)
    if args.job:
        print(format_job_metrics(client.status(args.job)))
    else:
        statuses = client.list_jobs()
        if not statuses:
            print("no jobs in spool")
            return 0
        print(format_job_table(statuses))
    return 0


def cmd_result(args) -> int:
    from repro.service.client import ServiceClient

    labels, info = ServiceClient(args.spool).result(args.job)
    print(
        f"{args.job}: {info.get('n_reads', len(labels))} reads, "
        f"{info.get('n_components', '?')} components "
        f"(cache {'hit' if info.get('cache_hit') else 'miss'})"
    )
    print(f"artifact: {info.get('artifact_path')}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.writelines(f"{int(label)}\n" for label in labels)
        print(f"labels written to {args.out}")
    return 0


def cmd_cancel(args) -> int:
    from repro.service.client import ServiceClient

    ServiceClient(args.spool).cancel(args.job)
    print(f"cancellation requested for {args.job}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaprep",
        description="METAPREP: parallel metagenome preprocessing (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset", help="build a synthetic dataset analogue")
    p.add_argument("--name", default="HG")
    p.add_argument("--workdir", default=".")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--list", action="store_true", help="list registry entries")
    _add_common(p)
    p.set_defaults(func=cmd_dataset)

    p = sub.add_parser("index", help="run IndexCreate")
    p.add_argument("--r1", required=True)
    p.add_argument("--r2")
    p.add_argument("--k", type=int, default=27)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--chunks", type=int, default=64)
    p.add_argument("--out", default=None, help="directory for binary tables")
    _add_common(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("run", help="run the full preprocessing pipeline")
    p.add_argument("--r1", required=True)
    p.add_argument("--r2")
    p.add_argument("--out", default=None, help="partition output directory")
    p.add_argument("--k", type=int, default=27)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--tasks", type=int, default=1)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument(
        "--passes",
        type=int,
        default=None,
        help="I/O pass count S (default 1; with --budget-mb and no "
        "--passes, the fewest passes that fit the budget are derived)",
    )
    p.add_argument("--chunks", type=int, default=None)
    p.add_argument(
        "--filter",
        default="none",
        help="k-mer frequency filter: 'none', '<30', or '10:30'",
    )
    p.add_argument("--machine", default="edison", choices=("edison", "ganga"))
    p.add_argument(
        "--executor",
        default="serial",
        choices=("serial", "process", "distributed"),
        help="execution backend: inline (serial), a multiprocessing "
        "pool (process), or metaprep worker daemons (distributed); "
        "results are bit-identical.  The engine also decides where "
        "in-memory exchange blocks live (heap, shared memory, the "
        "workers' stores)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --executor process (default: the CPUs "
        "available to this process per its affinity mask)",
    )
    p.add_argument(
        "--worker",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="a running `metaprep worker` daemon for --executor "
        "distributed; repeat once per worker",
    )
    p.add_argument(
        "--telemetry",
        default=None,
        metavar="DIR",
        help="collect run telemetry and write the artifacts (Perfetto "
        "trace, metrics snapshot, Prometheus textfile) under DIR",
    )
    p.add_argument(
        "--spill",
        default="auto",
        choices=("auto", "never", "always"),
        help="which passes keep their per-owner tuple blocks in spill "
        "files on disk instead of memory (auto: only passes whose "
        "in-memory residency exceeds --budget-mb)",
    )
    p.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="scratch directory for spill files (default: system temp)",
    )
    p.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        metavar="MB",
        help="per-task memory budget in MiB.  Without --passes it "
        "derives the fewest passes whose paper section 3.7 model fits; "
        "the model covers the index tables (merHist + FASTQPart), one "
        "FASTQ chunk buffer per thread, the kmerOut and kmerIn tuple "
        "buffers of the largest pass, and the component arrays p and p'.  "
        "With --spill auto, a pass whose whole in-memory tuple volume "
        "exceeds it spills",
    )
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "trace", help="export/inspect a run's collected telemetry"
    )
    p.add_argument(
        "run",
        help="telemetry directory of a previous run (or its telemetry.json)",
    )
    p.add_argument("--out", default=None, help="Perfetto trace output path")
    _add_common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("serve", help="run the partition job service daemon")
    p.add_argument("--spool", required=True, help="service spool directory")
    p.add_argument("--max-jobs", type=int, default=2,
                   help="concurrent job limit")
    p.add_argument(
        "--executor",
        default=None,
        choices=("serial", "process", "distributed"),
        help="override every job's execution backend",
    )
    p.add_argument("--workers", type=int, default=None,
                   help="override worker count for process-backend jobs")
    p.add_argument(
        "--worker",
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="with --executor distributed: schedule jobs onto this "
        "running `metaprep worker` daemon; repeat once per worker",
    )
    p.add_argument("--poll", type=float, default=0.2,
                   help="spool poll interval in seconds (also the "
                   "metrics-snapshot cadence)")
    p.add_argument("--once", action="store_true",
                   help="drain the current queue, then exit")
    p.add_argument("--drain-timeout", type=float, default=None,
                   help="with --once: give up after this many seconds")
    p.add_argument("--store-budget-mb", type=float, default=None,
                   help="artifact store LRU size budget in MiB")
    _add_common(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "worker",
        help="run a distributed-engine worker daemon on this host",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="interface to bind (default: loopback)")
    p.add_argument("--port", type=int, default=0,
                   help="port to bind (default: 0, kernel-assigned; the "
                   "bound address is printed on startup)")
    p.add_argument(
        "--advertise",
        default=None,
        metavar="HOST:PORT",
        help="address peers should dial if it differs from the bind "
        "address (NAT, multi-homed hosts)",
    )
    _add_common(p)
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "gateway",
        help="run the HTTP API gateway (daemon + REST front end)",
    )
    p.add_argument("--spool", required=True, help="service spool directory")
    p.add_argument("--host", default="127.0.0.1",
                   help="interface to bind (default: loopback)")
    p.add_argument("--port", type=int, default=0,
                   help="port to bind (default: 0, kernel-assigned; the "
                   "bound address is printed on startup)")
    p.add_argument("--tenants-file", default=None,
                   help="JSON tenants file (bearer tokens, quotas, rates); "
                   "omit to run open with one permissive tenant")
    p.add_argument("--max-inflight", type=int, default=64,
                   help="concurrent in-flight request limit (503 beyond)")
    p.add_argument("--max-queue-depth", type=int, default=64,
                   help="queued+running job limit before submissions get 503")
    p.add_argument("--max-jobs", type=int, default=2,
                   help="concurrent job limit of the embedded daemon")
    p.add_argument("--executor", default=None,
                   choices=("serial", "process", "distributed"),
                   help="override every job's execution backend")
    p.add_argument("--workers", type=int, default=None,
                   help="override worker count for process-backend jobs")
    p.add_argument("--poll", type=float, default=0.05,
                   help="embedded daemon's pickup interval for spool drop "
                   "files and its metrics-snapshot cadence (HTTP jobs are "
                   "handed over at once)")
    p.add_argument("--store-budget-mb", type=float, default=None,
                   help="artifact store LRU size budget in MiB")
    _add_common(p)
    p.set_defaults(func=cmd_gateway)

    p = sub.add_parser("submit", help="submit a partition job to the service")
    p.add_argument("--spool", required=True)
    p.add_argument("--r1", required=True)
    p.add_argument("--r2")
    p.add_argument("--k", type=int, default=27)
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--tasks", type=int, default=1)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--chunks", type=int, default=None)
    p.add_argument("--filter", default="none",
                   help="k-mer frequency filter: 'none', '<30', or '10:30'")
    p.add_argument("--retries", type=int, default=2,
                   help="max retries after a failed attempt")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job time limit in seconds")
    p.add_argument("--wait", type=float, default=None,
                   help="block up to N seconds for a terminal state")
    _add_common(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("status", help="show service job states")
    p.add_argument("--spool", required=True)
    p.add_argument("--job", default=None,
                   help="show one job's detailed metrics")
    _add_common(p)
    p.set_defaults(func=cmd_status)

    p = sub.add_parser("result", help="fetch a finished partition")
    p.add_argument("--spool", required=True)
    p.add_argument("--job", required=True)
    p.add_argument("--out", default=None,
                   help="write labels (one integer per line) here")
    _add_common(p)
    p.set_defaults(func=cmd_result)

    p = sub.add_parser("cancel", help="cancel a queued or running job")
    p.add_argument("--spool", required=True)
    p.add_argument("--job", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser("assemble", help="assemble FASTQ files (MEGAHIT stand-in)")
    p.add_argument("--fastq", nargs="+", required=True)
    p.add_argument("--k", type=int, default=21)
    p.add_argument("--min-count", type=int, default=2)
    p.add_argument("--min-len", type=int, default=63)
    p.add_argument("--out", default=None, help="FASTA output path")
    _add_common(p)
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser(
        "calibrate", help="measure this host's kernel throughputs"
    )
    p.add_argument("--full", action="store_true", help="larger problem sizes")
    p.add_argument("--machine", default="edison", choices=("edison", "ganga"))
    _add_common(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser(
        "spectrum", help="k-mer spectrum analysis + filter recommendation"
    )
    p.add_argument("--fastq", nargs="+", required=True)
    p.add_argument("--k", type=int, default=17)
    _add_common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser(
        "normalize", help="digital normalization (diginorm) of a FASTQ file"
    )
    p.add_argument("--fastq", required=True)
    p.add_argument("--k", type=int, default=17)
    p.add_argument("--coverage", type=int, default=20)
    p.add_argument("--out", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_normalize)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "verbose", False):
        set_verbosity("INFO")
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

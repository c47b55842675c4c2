"""Service workloads: submit -> wait -> stream result -> verify through one
``metaprep gateway`` subprocess, as a closed loop of two keep-alive clients
(callers that wait for their reply before sending the next request)."""

from __future__ import annotations

import json
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from statistics import mean, median, quantiles

import numpy as np

from benchmarks.harness.pipeline_bench import stage_replay
from benchmarks.harness.trace import Recorder, span
from benchmarks.harness.workloads import (
    M_MER,
    N_TASKS,
    N_THREADS,
    QUICK_SCALE,
    SERVICE_KS,
    Context,
    canonical,
    make_dataset,
    peak_rss_mb,
    reference_partition,
)
from repro.gateway.client import GatewayClient
from repro.service.client import ServiceClient, poll_schedule
from repro.service.jobs import JobState, JobStateError, PartitionJob
from repro.service.queue import JobQueue

N_CLIENTS = 2
TOKEN = "harness-token"
#: the 12 cold configurations; the S=1 / S=2 pair of one k shares an index
CONFIGS = [(k, s) for k in SERVICE_KS for s in (1, 2)]
#: warm resubmissions per repetition when --reps fixes the count
WARM_JOBS = 120
#: warm latencies are averaged in batches of this many (see end_to_end)
WARM_BATCH = 20
JOB_TIMEOUT_S = 120.0
#: ``wait(poll_cap=...)`` of the clients.  With the default 0.5 s cap a cold
#: job (~0.35 s) is noticed at the 0.31 s or the 0.63 s poll, so its latency
#: flips between two modes and ignores any smaller change in the pipeline;
#: at 50 ms it tracks the server.  Warm jobs end before the cap applies.
POLL_CAP_S = 0.05
#: how long after its 202 a job may still be reported unknown (see run_job)
UNKNOWN_JOB_GRACE_S = 2.0


def job_config(k: int, passes: int) -> dict:
    return {"k": k, "m": M_MER, "n_tasks": N_TASKS, "n_threads": N_THREADS,
            "n_passes": passes}


@dataclass
class Gateway:
    proc: object
    address: str
    spool: object


@dataclass
class ServiceState:
    ds: object
    refs: dict  # k -> Reference
    tenants: object
    gateway: Gateway = None
    n_gateways: int = 0


@dataclass
class JobResult:
    k: int
    latency_s: float = 0.0
    polls: int = 0
    unknown_polls: int = 0
    job_id: str = ""
    ok: bool = False
    error: str = ""


def start_gateway(ctx: Context, st: ServiceState) -> None:
    """A gateway on a fresh spool: nothing cached, nothing queued."""
    spool = ctx.scratch / f"spool{st.n_gateways}"
    st.n_gateways += 1
    proc, address = ctx.spawn_daemon(
        "gateway", "--spool", str(spool), "--tenants-file", str(st.tenants),
        "--max-jobs", "1")
    st.gateway = Gateway(proc, address, spool)


def stop_gateway(ctx: Context, st: ServiceState) -> float:
    """Terminate and reap the gateway; returns its peak RSS in MiB."""
    peak = peak_rss_mb(st.gateway.proc.pid)
    ctx.stop(st.gateway.proc)
    st.gateway = None
    return peak


def setup(ctx: Context) -> ServiceState:
    ds = make_dataset(ctx)
    tenants = ctx.scratch / "tenants.json"
    # admission limits far above the closed loop's rate: the mix must
    # provoke no 429/503, so any non-2xx answer is a real failure
    tenants.write_text(json.dumps({"tenants": [{
        "name": "harness", "token": TOKEN, "rate": 1e6, "burst": 1000000,
        "max_queued_jobs": 1000}]}))
    st = ServiceState(ds, {k: reference_partition(ds, k) for k in SERVICE_KS}, tenants)
    start_gateway(ctx, st)
    if ctx.workload.warm:
        # priming the store is this workload's set-up, not its measurement
        plan = [CONFIGS[i::N_CLIENTS] for i in range(N_CLIENTS)]
        tally(ctx, run_clients(st, plan, None, None)[0])
    return st


def teardown(ctx: Context, st: ServiceState) -> None:
    if st.gateway is not None:
        stop_gateway(ctx, st)


# ----------------------------------------------------------------------
# one job, one client, one session
# ----------------------------------------------------------------------
def run_job(client, st: ServiceState, k: int, passes: int, rec: Recorder | None) -> JobResult:
    """submit -> poll to a terminal state -> download -> verify.  Works
    against a GatewayClient and a spool ServiceClient alike."""
    out = JobResult(k)
    t0 = time.perf_counter()
    try:
        with span(rec, "service.job"):
            with span(rec, "gateway.submit"):
                out.job_id = client.submit(st.ds.units, config=job_config(k, passes))
            schedule = poll_schedule(cap=POLL_CAP_S)
            while True:
                try:
                    with span(rec, "gateway.status"):
                        state = client.status(out.job_id)["state"]
                except JobStateError:
                    # the spool answers "unknown job" for an instant while
                    # the daemon moves a submission from submit/ into the
                    # event log; the id came from a 202, so poll again
                    if time.perf_counter() - t0 > UNKNOWN_JOB_GRACE_S:
                        raise
                    state = None
                    out.unknown_polls += 1
                out.polls += 1
                if state in JobState.TERMINAL:
                    break
                if time.perf_counter() - t0 > JOB_TIMEOUT_S:
                    raise TimeoutError(f"job {out.job_id} still {state}")
                time.sleep(next(schedule))
            with span(rec, "gateway.result"):
                labels, _ = client.result(out.job_id)
            out.ok = np.array_equal(canonical(labels), st.refs[k].labels)
            if not out.ok:
                out.error = "streamed labels differ from the reference partition"
    except Exception as exc:  # noqa: BLE001 - a failed operation is a counted result
        out.error = f"{type(exc).__name__}: {exc}"
    out.latency_s = time.perf_counter() - t0
    return out


def run_clients(st, plans, deadline, rec) -> tuple[list[list[JobResult]], float]:
    """Each client thread works through its plan (a list of configs, or an
    endless iterator cut off at ``deadline``) on one keep-alive connection.
    Returns per-client results and the session wall."""
    def client_loop(plan):
        client = GatewayClient(st.gateway.address, token=TOKEN)
        results = []
        try:
            for k, passes in plan:
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                results.append(run_job(client, st, k, passes, rec))
        finally:
            client.close()
        return results

    t0 = time.perf_counter()
    with ThreadPoolExecutor(max_workers=len(plans)) as pool:
        futures = [pool.submit(client_loop, plan) for plan in plans]
        results = [f.result() for f in futures]
    return results, time.perf_counter() - t0


def tally(ctx, per_client) -> list[JobResult]:
    """Count every job into attempted/failed (on the main thread)."""
    jobs = [job for results in per_client for job in results]
    for job in jobs:
        ctx.check(f"job k={job.k} {job.job_id}: {job.error}", job.ok)
    return jobs


def cold_plans(seed: int, session: int) -> list:
    order = CONFIGS[:]
    random.Random(f"{seed}/cold/{session}").shuffle(order)
    return [order[i::N_CLIENTS] for i in range(N_CLIENTS)]


def warm_plans(seed: int, count: int | None) -> list:
    """Per-client config sequences drawn by the seed: ``count`` jobs in
    total, or endless when the loop is cut off by time."""
    def draws(client: int):
        rng = random.Random(f"{seed}/warm/{client}")
        while True:
            yield rng.choice(CONFIGS)

    if count is None:
        return [draws(i) for i in range(N_CLIENTS)]
    per_client = count // N_CLIENTS
    return [[next(gen) for _ in range(per_client)]
            for gen in (draws(i) for i in range(N_CLIENTS))]


def _warm_count(ctx: Context, jobs: int) -> int:
    """A fixed warm job count, shrunk like the inputs under --quick."""
    return max(int(jobs * (QUICK_SCALE if ctx.quick else 1.0)), 2 * N_CLIENTS)


def _batches(items: list, size: int) -> list[list]:
    """Full batches of ``size``; everything in one batch if there is no
    full one."""
    full = len(items) // size
    return [items[i * size:(i + 1) * size] for i in range(full)] or [items]


def _tuples(st, jobs) -> int:
    return sum(st.refs[job.k].n_tuples for job in jobs)


# ----------------------------------------------------------------------
# end to end (tracing off)
# ----------------------------------------------------------------------
def end_to_end(ctx: Context, st: ServiceState, seconds: float, reps: int | None) -> dict:
    if ctx.workload.warm:
        return _warm_end_to_end(ctx, st, seconds, reps)
    # cold: sessions of the 12 cache-miss jobs, each on a fresh spool; one
    # latency sample (the session's median job) and one rate per session
    latencies, rates, rss, measured = [], [], [], 0.0
    while (len(rates) < reps) if reps else (measured < seconds):
        if st.gateway is None:
            start_gateway(ctx, st)
        per_client, wall = run_clients(st, cold_plans(ctx.seed, len(rates)), None, None)
        jobs = tally(ctx, per_client)
        measured += wall
        latencies.append(median(job.latency_s for job in jobs))
        rates.append(_tuples(st, jobs) / wall)
        rss.append(stop_gateway(ctx, st))
    return {"wall_s": latencies, "tuples_per_s": rates, "peak_rss_mb": rss}


def _warm_end_to_end(ctx, st, seconds, reps) -> dict:
    count = _warm_count(ctx, WARM_JOBS * reps) if reps else None
    deadline = None if count else time.perf_counter() + seconds
    per_client, wall = run_clients(st, warm_plans(ctx.seed, count), deadline, None)
    jobs = tally(ctx, per_client)
    # the latency distribution is bimodal at the client's poll quantum, so
    # its median flips between modes from run to run; batch means do not
    batch_means = [
        mean(job.latency_s for job in batch)
        for results in per_client for batch in _batches(results, WARM_BATCH)
    ]
    return {"wall_s": batch_means, "tuples_per_s": [_tuples(st, jobs) / wall],
            "peak_rss_mb": [stop_gateway(ctx, st)]}


# ----------------------------------------------------------------------
# per layer (traced pass)
# ----------------------------------------------------------------------
def _ms(values) -> list[float]:
    return [1e3 * v for v in values]


def _p90(values) -> float:
    return quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def per_layer(ctx: Context, st: ServiceState, rec: Recorder) -> dict:
    wl = ctx.workload
    if wl.warm:
        plans = warm_plans(ctx.seed, _warm_count(ctx, WARM_JOBS // 2))
    else:
        plans = cold_plans(ctx.seed, 0)
    per_client, wall = run_clients(st, plans, None, rec)
    jobs = tally(ctx, per_client)
    latencies = [job.latency_s for job in jobs]
    m = {
        "service.jobs_per_s": len(jobs) / wall,
        "service.job_p50_ms": 1e3 * median(latencies),
        "service.job_p90_ms": 1e3 * _p90(latencies),
        "gateway.submit_ms_p50": median(_ms(rec.durations("gateway.submit"))),
        "gateway.status_ms_p50": median(_ms(rec.durations("gateway.status"))),
        "gateway.status_ms_p90": _p90(_ms(rec.durations("gateway.status"))),
        "gateway.polls_per_job": mean(job.polls for job in jobs),
        "gateway.unknown_job_polls": sum(job.unknown_polls for job in jobs),
    }

    # every config is cached by now: the same round trip on the spool
    # directly, no HTTP, is the service layer's own share of a warm job
    spool_client = ServiceClient(st.gateway.spool)
    spool_jobs = [run_job(spool_client, st, k, s, None) for k, s in CONFIGS[:10]]
    tally(ctx, [spool_jobs])
    m["service.spool_warm_ms"] = 1e3 * mean(job.latency_s for job in spool_jobs)
    if wl.warm:
        m["gateway.overhead_ms"] = 1e3 * mean(latencies) - m["service.spool_warm_ms"]

    client = GatewayClient(st.gateway.address, token=TOKEN)
    try:
        streamed = 0
        for job in jobs[:10]:
            with rec.span("gateway.stream"):
                streamed += sum(len(chunk) for chunk in client.stream_result(job.job_id))
        m["gateway.stream_mb_per_s"] = streamed / 1e6 / rec.total("gateway.stream")
        exposition = client.metrics_text()
    finally:
        client.close()
    store = {
        line.split()[0]: float(line.split()[1])
        for line in exposition.splitlines() if line.startswith("metaprep_store_")
    }
    lookups = store.get("metaprep_store_hits", 0) + store.get("metaprep_store_misses", 0)
    m["service.store.hit_ratio"] = store.get("metaprep_store_hits", 0) / max(lookups, 1)
    m["service.queue.submit_ms"] = _queue_submit_ms(ctx, st, rec)

    # where a cold job's seconds go: the same stage replay as the pipeline rows
    replay, _, _, _ = stage_replay(ctx, st.ds, st.refs[wl.k], rec)
    m.update(replay)
    return m


def _queue_submit_ms(ctx, st, rec) -> float:
    """JobQueue.submit alone (event-log append + fsync) on a scratch spool."""
    queue = JobQueue(ctx.scratch / "queue-probe")
    for k, passes in CONFIGS:
        job = PartitionJob(units=st.ds.units, config=job_config(k, passes))
        with rec.span("service.queue.submit"):
            queue.submit(job)
    return median(_ms(rec.durations("service.queue.submit")))

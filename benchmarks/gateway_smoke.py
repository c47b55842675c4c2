"""Gateway smoke: 32+ concurrent HTTP clients against one real gateway.

CI driver for the ``gateway-smoke`` job (also runnable locally):

1. builds the tiny HG analogue and spawns one real ``metaprep gateway``
   daemon *subprocess* on loopback (ephemeral port parsed from its
   announce line, tenants loaded from a generated tenants file),
2. fans out ``METAPREP_GW_SMOKE_CLIENTS`` concurrent clients over real
   TCP sockets in four roles:

   * **submitters** — submit one of three distinct configs, wait for
     success, stream the artifact, and hash it; per config, one leader
     submits first and the rest follow, so every follower must coalesce
     onto the leader's job;
   * **pollers** — hammer ``/healthz``, ``/v1/jobs``, ``/metrics`` and
     job statuses in a loop;
   * **cancellers** — submit a distinct config and immediately cancel;
   * **abusers** — send raw garbage frames and expect ``400`` while the
     server keeps answering everyone else;

3. asserts zero 5xx responses besides deliberate ``503`` backpressure,
   that all clients sharing a config saw the **same job id** and
   **byte-identical** streamed artifacts, that the coalesced counter
   matches the follower count exactly, and that no status poll a
   submitter or canceller made after its job's ``202`` got a ``404``,
4. writes ``BENCH_gateway.json`` (request mix, latencies, counters,
   status polls per job).

Environment knobs::

    METAPREP_GW_SMOKE_CLIENTS   concurrent clients (default 32, min 32)
    METAPREP_GW_SMOKE_SCALE     dataset scale (default 0.12)
    METAPREP_GW_SMOKE_DIR       working directory (default ./gateway-smoke)
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BASE_CFG = {"m": 5, "n_tasks": 2, "n_threads": 2, "n_passes": 2}
CONFIG_KS = (21, 23, 25)  # three distinct jobs for the submitter pool
TENANT_TOKENS = tuple(f"tok-lab-{i}" for i in range(4))
WAIT_SECONDS = 300.0


class Stats:
    """Thread-safe tally of every HTTP outcome the fleet observes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.ok = 0
        self.by_status: dict[int, int] = {}
        self.latencies: list[float] = []
        self.jobs_polled = 0
        self.polls = 0
        self.unknown_job_polls = 0

    def hit(self, seconds: float) -> None:
        with self._lock:
            self.ok += 1
            self.latencies.append(seconds)

    def error(self, status: int) -> None:
        with self._lock:
            self.by_status[status] = self.by_status.get(status, 0) + 1

    def polled(self, polls: int, unknown: int) -> None:
        with self._lock:
            self.jobs_polled += 1
            self.polls += polls
            self.unknown_job_polls += unknown

    def unexpected_5xx(self) -> int:
        return sum(
            n for status, n in self.by_status.items()
            if status >= 500 and status != 503
        )


def _spawn_gateway(spool: Path, tenants_file: Path) -> tuple[subprocess.Popen, str]:
    """Start the gateway daemon subprocess; returns (process, address)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "gateway",
            "--spool", str(spool),
            "--tenants-file", str(tenants_file),
            "--port", "0",
            "--max-jobs", "2",
            "--max-queue-depth", "16",
            "--max-inflight", "64",
            "--poll", "0.02",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    line = proc.stdout.readline().strip()
    prefix = "metaprep gateway listening on "
    assert line.startswith(prefix), f"unexpected announce line: {line!r}"
    return proc, line[len(prefix):]


def _timed(stats: Stats, call):
    """Run one client call, tallying latency or the error status."""
    from repro.gateway.client import GatewayError

    t0 = time.perf_counter()
    try:
        value = call()
    except GatewayError as exc:
        stats.error(exc.status)
        raise
    stats.hit(time.perf_counter() - t0)
    return value


def _submit_with_retry(stats: Stats, client, units, config) -> str:
    """Submit, honouring 429/503 Retry-After like a polite client."""
    from repro.gateway.client import GatewayError

    deadline = time.monotonic() + WAIT_SECONDS
    while True:
        try:
            return _timed(stats, lambda: client.submit(units, config=config))
        except GatewayError as exc:
            if exc.status not in (429, 503) or time.monotonic() > deadline:
                raise
            time.sleep(exc.retry_after or 0.05)


def _wait(stats: Stats, client, job_id: str) -> dict:
    """Poll a job the caller got a ``202`` for until it is terminal, on
    the clients' backoff schedule.  A ``404`` here means the gateway
    acknowledged a job it could not find: counted, then asserted zero."""
    from repro.service.client import poll_schedule
    from repro.service.jobs import JobState, JobStateError

    deadline = time.monotonic() + WAIT_SECONDS
    schedule = poll_schedule()
    polls = unknown = 0
    try:
        while True:
            polls += 1
            try:
                status = client.status(job_id)
            except JobStateError:
                unknown += 1
            else:
                if status["state"] in JobState.TERMINAL:
                    return status
            if time.monotonic() > deadline:
                raise TimeoutError(f"job {job_id} not terminal after {WAIT_SECONDS}s")
            time.sleep(next(schedule))
    finally:
        stats.polled(polls, unknown)


def main() -> int:
    from repro.datasets.registry import build_dataset
    from repro.gateway.client import GatewayClient

    n_clients = max(32, int(os.environ.get("METAPREP_GW_SMOKE_CLIENTS", "32")))
    scale = float(os.environ.get("METAPREP_GW_SMOKE_SCALE", "0.12"))
    root = Path(os.environ.get("METAPREP_GW_SMOKE_DIR", "gateway-smoke"))
    root.mkdir(parents=True, exist_ok=True)

    built = build_dataset("HG", root / "data", seed=7, scale=scale)
    units = built.units

    tenants_file = root / "tenants.json"
    tenants_file.write_text(json.dumps({
        "tenants": [
            {"name": f"lab-{i}", "token": token, "rate": 500.0, "burst": 1000}
            for i, token in enumerate(TENANT_TOKENS)
        ]
    }))

    proc, address = _spawn_gateway(root / "spool", tenants_file)
    print(f"gateway-smoke: gateway at {address}, {n_clients} clients")

    stats = Stats()
    # role split: half submitters, then pollers, cancellers, abusers
    n_submitters = max(len(CONFIG_KS), n_clients // 2)
    n_cancellers = 4
    n_abusers = 4
    n_pollers = n_clients - n_submitters - n_cancellers - n_abusers

    # per-config leader gate: followers submit only after the leader's
    # job exists, so every follower deterministically coalesces
    leader_done = {k: threading.Event() for k in CONFIG_KS}
    leader_jobs: dict[int, str] = {}
    known_jobs: list[str] = []
    job_lock = threading.Lock()

    def client_for(i: int) -> GatewayClient:
        return GatewayClient(address, token=TENANT_TOKENS[i % len(TENANT_TOKENS)])

    def submitter(i: int):
        k = CONFIG_KS[i % len(CONFIG_KS)]
        config = dict(BASE_CFG, k=k)
        client = client_for(i)
        try:
            is_leader = i < len(CONFIG_KS)
            if not is_leader:
                assert leader_done[k].wait(WAIT_SECONDS), "leader never submitted"
            job_id = _submit_with_retry(stats, client, units, config)
            if is_leader:
                leader_jobs[k] = job_id
                leader_done[k].set()
            with job_lock:
                known_jobs.append(job_id)
            status = _wait(stats, client, job_id)
            assert status["state"] == "succeeded", status
            blob = b"".join(
                _timed(stats, lambda: list(client.stream_result(job_id)))
            )
            return {
                "role": "submitter", "k": k, "job_id": job_id,
                "sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob),
            }
        finally:
            client.close()

    def poller(i: int):
        client = client_for(i)
        try:
            for _ in range(25):
                _timed(stats, client.healthz)
                _timed(stats, client.list_jobs)
                with job_lock:
                    probe = list(known_jobs[-3:])
                for job_id in probe:
                    try:
                        _timed(stats, lambda j=job_id: client.status(j))
                    except Exception:
                        pass  # cross-tenant 404 is the expected answer
                _timed(stats, client.metrics_text)
                time.sleep(0.02)
            return {"role": "poller"}
        finally:
            client.close()

    def canceller(i: int):
        client = client_for(i)
        config = dict(BASE_CFG, k=27 + 2 * i, n_passes=1)
        try:
            job_id = _submit_with_retry(stats, client, units, config)
            _timed(stats, lambda: client.cancel(job_id))
            status = _wait(stats, client, job_id)
            assert status["state"] in ("cancelled", "succeeded"), status
            return {"role": "canceller", "state": status["state"]}
        finally:
            client.close()

    def abuser(i: int):
        host, _, port = address.rpartition(":")
        replies = []
        for payload in (
            b"\x89PNG garbage frame\r\n\r\n",
            b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
        ):
            with socket.create_connection((host, int(port)), timeout=30) as sock:
                sock.sendall(payload)
                sock.shutdown(socket.SHUT_WR)
                chunks = []
                while data := sock.recv(65536):
                    chunks.append(data)
                reply = b"".join(chunks)
            assert reply.startswith(b"HTTP/1.1 400 "), reply[:64]
            replies.append(400)
            stats.error(400)
        return {"role": "abuser", "replies": replies}

    tasks = (
        [lambda i=i: submitter(i) for i in range(n_submitters)]
        + [lambda i=i: poller(i) for i in range(n_pollers)]
        + [lambda i=i: canceller(i) for i in range(n_cancellers)]
        + [lambda i=i: abuser(i) for i in range(n_abusers)]
    )
    assert len(tasks) == n_clients

    t0 = time.perf_counter()
    try:
        with ThreadPoolExecutor(max_workers=n_clients) as pool:
            results = [f.result() for f in [pool.submit(t) for t in tasks]]
        metrics_text = GatewayClient(address).metrics_text()
    finally:
        proc.terminate()
        proc.wait(timeout=15)
    wall = time.perf_counter() - t0

    # --- zero 5xx besides deliberate 503 backpressure ------------------
    assert stats.unexpected_5xx() == 0, f"unexpected 5xx: {stats.by_status}"
    print(f"gateway-smoke: {stats.ok} requests ok, errors {stats.by_status}")

    # --- coalescing: one job per config, followers byte-identical ------
    submits = [r for r in results if r["role"] == "submitter"]
    for k in CONFIG_KS:
        group = [r for r in submits if r["k"] == k]
        assert {r["job_id"] for r in group} == {leader_jobs[k]}, group
        assert len({r["sha256"] for r in group}) == 1, (
            f"k={k}: streamed artifacts diverge across clients"
        )
    print(f"gateway-smoke: {len(submits)} submitters coalesced onto "
          f"{len(CONFIG_KS)} jobs, streams byte-identical")

    # --- a 202 means the job exists: no 404 on any later status poll --
    assert stats.unknown_job_polls == 0, (
        f"{stats.unknown_job_polls} status polls after a 202 got 404"
    )
    polls_per_job = stats.polls / max(stats.jobs_polled, 1)
    print(f"gateway-smoke: {stats.jobs_polled} jobs waited on, "
          f"{polls_per_job:.2f} status polls per job, none unknown")

    def counter(name: str) -> int:
        match = re.search(rf"^{name} (\d+)$", metrics_text, re.M)
        assert match, f"{name} missing from /metrics"
        return int(match.group(1))

    coalesced = counter("metaprep_gateway_coalesced")
    assert coalesced == len(submits) - len(CONFIG_KS), (
        f"coalesced {coalesced} != followers {len(submits) - len(CONFIG_KS)}"
    )

    latencies = sorted(stats.latencies)
    pct = lambda p: latencies[min(len(latencies) - 1, int(p * len(latencies)))]
    doc = {
        "clients": n_clients,
        "roles": {
            "submitters": n_submitters, "pollers": n_pollers,
            "cancellers": n_cancellers, "abusers": n_abusers,
        },
        "dataset": "HG", "scale": scale,
        "distinct_configs": len(CONFIG_KS),
        "wall_seconds": round(wall, 3),
        "requests_ok": stats.ok,
        "errors_by_status": {str(s): n for s, n in sorted(stats.by_status.items())},
        "unexpected_5xx": stats.unexpected_5xx(),
        "deliberate_503": stats.by_status.get(503, 0),
        "gateway_counters": {
            "requests": counter("metaprep_gateway_requests"),
            "coalesced": coalesced,
            "rejected": counter("metaprep_gateway_rejected"),
            "bytes_streamed": counter("metaprep_gateway_bytes_streamed"),
        },
        "latency_seconds": {
            "p50": round(pct(0.50), 5),
            "p90": round(pct(0.90), 5),
            "p99": round(pct(0.99), 5),
        },
        "streams_byte_identical": True,
        "jobs_polled": stats.jobs_polled,
        "polls_per_job": round(polls_per_job, 3),
        "unknown_job_polls": stats.unknown_job_polls,
    }
    out = Path("BENCH_gateway.json")
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"gateway-smoke: wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

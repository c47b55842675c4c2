"""Gateway application: REST routes in front of an embedded service daemon.

The gateway hands every submission and cancel to its
:class:`~repro.service.daemon.ServeDaemon` in-process
(:meth:`~repro.service.daemon.ServeDaemon.submit` /
:meth:`~repro.service.daemon.ServeDaemon.cancel`), and answers only once
the daemon has logged the job's event: a status read after a ``202``
always finds the job, and a job whose partition the artifact store
already holds has succeeded by then.  The daemon stays the sole queue
writer and its event log the durable record, so the gateway keeps no
queue state of its own; status and results are read back from the
spool (result documents, then an event-log replay).  The spool's
drop-file protocol stays for ``metaprep submit`` / ``metaprep serve``.
The only gateway-private state is the tenant ownership ledger, an
append-only JSONL file under ``<spool>/gateway/`` replayed at boot.

Routes::

    POST   /v1/jobs              submit (202, body {"job_id", "coalesced"})
    GET    /v1/jobs              list this tenant's jobs
    GET    /v1/jobs/{id}         status document
    GET    /v1/jobs/{id}/result  chunked stream of the partition artifact
    DELETE /v1/jobs/{id}         cancel (202)
    GET    /healthz              liveness (no auth)
    GET    /metrics              Prometheus textfile (no auth)

Tenancy semantics:

* a tenant sees exactly the jobs it submitted — a foreign job id is a
  404, never a 403, so ids cannot be probed for existence;
* submissions with an identical (dataset bytes, partition-relevant
  config) fingerprint *coalesce*: the second tenant is attached as an
  owner of the already-queued/running job and both observe the same
  job id — one queue entry, one pipeline run, two visibilities;
* quota exhaustion and rate limiting answer 429 with a deterministic
  ``Retry-After``; queue saturation answers 503.

Handler purity contract (enforced by
``tests/analysis/test_hazards.py::test_gateway_handlers_are_pure``):
handlers keep all state on the app instance and never block the event
loop — dataset hashing, the hand-off to the daemon and artifact reads
go through the loop's executor.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from typing import AsyncIterator, Dict, Optional, Tuple

from repro import telemetry
from repro.gateway.http import (
    STREAM_CHUNK_BYTES,
    BadRequest,
    HttpRequest,
    send_chunked,
    send_json,
)
from repro.gateway.tenants import Tenant, TenantAuthError, TenantRegistry
from repro.service import store as store_mod
from repro.service.client import ServiceClient
from repro.service.daemon import ServeDaemon
from repro.service.jobs import JobState, JobStateError, PartitionJob
from repro.util.logging import get_logger

_LOG = get_logger("gateway.app")

GATEWAY_DIR = "gateway"
ACL_FILENAME = "acl.jsonl"

#: default backpressure threshold: pending + running jobs beyond this
#: answer 503 on submission
DEFAULT_MAX_QUEUE_DEPTH = 64


class GatewayCounters:
    """The gateway's four service counters.

    Kept as plain instance attributes (handlers mutate app state, never
    module globals: ``test_gateway_handlers_are_pure``) and mirrored into
    the telemetry runtime so an activated run records them alongside
    pipeline counters.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.bytes_streamed = 0
        self.coalesced = 0
        self.rejected = 0

    def count(self, name: str, value: int = 1) -> None:
        setattr(self, name, getattr(self, name) + value)
        telemetry.add_counter(f"gateway.{name}", value)

    def snapshot(self) -> Dict[str, int]:
        return {
            "gateway.requests": self.requests,
            "gateway.bytes_streamed": self.bytes_streamed,
            "gateway.coalesced": self.coalesced,
            "gateway.rejected": self.rejected,
        }


class GatewayApp:
    """Routes requests; owns tenancy state; hands jobs to its daemon."""

    def __init__(
        self,
        daemon: ServeDaemon,
        registry: TenantRegistry | None = None,
        max_queue_depth: int = DEFAULT_MAX_QUEUE_DEPTH,
        clock=time.time,
    ) -> None:
        #: the co-located daemon: queue writes go through its hand-off,
        #: metrics are its live snapshot
        self.daemon = daemon
        self.spool_dir = daemon.spool_dir
        self.client = ServiceClient(self.spool_dir)
        self.registry = registry or TenantRegistry()
        self.max_queue_depth = max_queue_depth
        self.counters = GatewayCounters()
        self._clock = clock
        #: job_id -> tenant names that may see it (a tuple: one small
        #: object per job, kept for every job the gateway has accepted)
        self._owners: Dict[str, Tuple[str, ...]] = {}
        #: work fingerprint -> job_id (coalescing map)
        self._by_fingerprint: Dict[str, str] = {}
        #: job_id -> cached (terminal state, artifact bytes)
        self._terminal: Dict[str, Tuple[str, int]] = {}
        self._acl_path = self.spool_dir / GATEWAY_DIR / ACL_FILENAME
        self._acl_path.parent.mkdir(parents=True, exist_ok=True)
        self._replay_acl()

    # ------------------------------------------------------------------
    # ownership ledger
    # ------------------------------------------------------------------
    def _replay_acl(self) -> None:
        if not self._acl_path.exists():
            return
        for line in self._acl_path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a crashed append
            self._add_owner(entry["job_id"], entry["tenant"])
            if entry.get("fingerprint"):
                self._by_fingerprint[entry["fingerprint"]] = entry["job_id"]

    def _add_owner(self, job_id: str, name: str) -> None:
        owners = self._owners.get(job_id, ())
        if name not in owners:
            self._owners[job_id] = owners + (name,)

    def _record_owner(
        self, job_id: str, tenant: Tenant, fingerprint: str
    ) -> None:
        self._add_owner(job_id, tenant.name)
        self._by_fingerprint[fingerprint] = job_id
        with open(self._acl_path, "a") as fh:
            fh.write(
                json.dumps(
                    {
                        "job_id": job_id,
                        "tenant": tenant.name,
                        "fingerprint": fingerprint,
                        "time": float(self._clock()),
                    },
                    sort_keys=True,
                )
                + "\n"
            )

    def _visible(self, tenant: Tenant, job_id: str) -> bool:
        return tenant.name in self._owners.get(job_id, ())

    # ------------------------------------------------------------------
    # status plumbing (cached once terminal)
    # ------------------------------------------------------------------
    def _status(self, job_id: str) -> Dict:
        return self.client.status(job_id)

    def _terminal_info(self, job_id: str) -> Tuple[Optional[str], int]:
        """(terminal state or None, stored artifact bytes) of a job."""
        cached = self._terminal.get(job_id)
        if cached is not None:
            return cached
        try:
            status = self._status(job_id)
        except JobStateError:
            return None, 0
        state = status["state"]
        if state not in JobState.TERMINAL:
            return None, 0
        size = 0
        path = (status.get("result") or {}).get("artifact_path")
        if path and os.path.exists(path):
            size = os.path.getsize(path)
        self._terminal[job_id] = (state, size)
        return state, size

    def _tenant_load(self, tenant: Tenant) -> Tuple[int, int]:
        """(non-terminal job count, stored result bytes) of a tenant."""
        active = 0
        stored = 0
        for job_id, owners in self._owners.items():
            if tenant.name not in owners:
                continue
            state, size = self._terminal_info(job_id)
            if state is None:
                active += 1
            elif state == JobState.SUCCEEDED:
                stored += size
        return active, stored

    def _queue_depth(self) -> int:
        doc = self.daemon.metrics()
        return int(doc["queue_depth"]) + int(doc["running"])

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def handle(self, request: HttpRequest, writer) -> int:
        """Route one request; returns the response status for logging."""
        self.counters.count("requests")
        with telemetry.span("gateway.request"):
            try:
                return await self._route(request, writer)
            except BadRequest as exc:
                self.counters.count("rejected")
                return await send_status(writer, 400, str(exc))
            except TenantAuthError as exc:
                self.counters.count("rejected")
                return await send_status(writer, 401, str(exc))

    async def _route(self, request: HttpRequest, writer) -> int:
        path, method = request.path, request.method
        if path == "/healthz" and method == "GET":
            await send_json(writer, 200, {"status": "ok"})
            return 200
        if path == "/metrics" and method == "GET":
            return await self._get_metrics(writer)

        tenant = self.registry.authenticate(request.bearer_token())
        retry_after = self.registry.admit(tenant)
        if retry_after > 0.0:
            self.counters.count("rejected")
            return await send_status(
                writer,
                429,
                "rate limit exceeded",
                retry_after=retry_after,
            )

        parts = [p for p in path.split("/") if p]
        if parts[:2] == ["v1", "jobs"]:
            if len(parts) == 2 and method == "POST":
                return await self._post_job(request, writer, tenant)
            if len(parts) == 2 and method == "GET":
                return await self._list_jobs(writer, tenant)
            if len(parts) == 3 and method == "GET":
                return await self._get_job(writer, tenant, parts[2])
            if len(parts) == 3 and method == "DELETE":
                return await self._cancel_job(writer, tenant, parts[2])
            if len(parts) == 4 and parts[3] == "result" and method == "GET":
                return await self._get_result(writer, tenant, parts[2])
            return await send_status(writer, 405, f"unsupported method {method}")
        return await send_status(writer, 404, f"no route for {path}")

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    async def _post_job(
        self, request: HttpRequest, writer, tenant: Tenant
    ) -> int:
        doc = request.json()
        if "units" not in doc:
            raise BadRequest("submission needs a 'units' field")
        try:
            job = PartitionJob(
                units=doc["units"],
                config=dict(doc.get("config", {})),
                max_retries=int(doc.get("max_retries", 2)),
                timeout_seconds=doc.get("timeout_seconds"),
            )
        except (ValueError, TypeError, KeyError) as exc:
            raise BadRequest(f"invalid job spec: {exc}") from None

        loop = asyncio.get_running_loop()
        try:
            fingerprint = await loop.run_in_executor(
                None,
                store_mod.partition_key,
                job.pipeline_units(),
                job.pipeline_config(),
            )
        except OSError as exc:
            raise BadRequest(f"unreadable input unit: {exc}") from None

        # coalesce: identical work already queued/running → attach
        existing = self._by_fingerprint.get(fingerprint)
        if existing is not None:
            state, _ = self._terminal_info(existing)
            if state is None:
                self.counters.count("coalesced")
                self._record_owner(existing, tenant, fingerprint)
                _LOG.info(
                    "coalesced submission from %s onto %s", tenant.name, existing
                )
                await send_json(
                    writer, 202, {"job_id": existing, "coalesced": True}
                )
                return 202

        active, stored = self._tenant_load(tenant)
        if active >= tenant.max_queued_jobs:
            self.counters.count("rejected")
            return await send_status(
                writer,
                429,
                f"tenant {tenant.name} has {active} queued/running jobs "
                f"(limit {tenant.max_queued_jobs})",
                retry_after=1.0,
            )
        if stored >= tenant.max_result_bytes:
            self.counters.count("rejected")
            return await send_status(
                writer,
                429,
                f"tenant {tenant.name} stores {stored} result bytes "
                f"(limit {tenant.max_result_bytes})",
                retry_after=1.0,
            )
        depth = self._queue_depth()
        if depth >= self.max_queue_depth:
            self.counters.count("rejected")
            return await send_status(
                writer,
                503,
                f"queue saturated ({depth} jobs deep)",
                retry_after=1.0,
            )

        try:
            await loop.run_in_executor(None, self.daemon.submit, job, fingerprint)
        except Exception as exc:  # the daemon's failure, not the connection's
            _LOG.exception("daemon did not accept job %s", job.job_id)
            return await send_status(writer, 500, f"job not queued: {exc}")
        self._record_owner(job.job_id, tenant, fingerprint)
        await send_json(writer, 202, {"job_id": job.job_id, "coalesced": False})
        return 202

    async def _list_jobs(self, writer, tenant: Tenant) -> int:
        loop = asyncio.get_running_loop()
        jobs = []
        for job_id in sorted(self._owners):
            if not self._visible(tenant, job_id):
                continue
            try:
                jobs.append(await loop.run_in_executor(None, self._status, job_id))
            except JobStateError:
                continue
        await send_json(writer, 200, {"jobs": jobs})
        return 200

    async def _get_job(self, writer, tenant: Tenant, job_id: str) -> int:
        if not self._visible(tenant, job_id):
            return await send_status(writer, 404, f"unknown job {job_id}")
        loop = asyncio.get_running_loop()
        try:
            status = await loop.run_in_executor(None, self._status, job_id)
        except JobStateError:
            return await send_status(writer, 404, f"unknown job {job_id}")
        await send_json(writer, 200, status)
        return 200

    async def _cancel_job(self, writer, tenant: Tenant, job_id: str) -> int:
        if not self._visible(tenant, job_id):
            return await send_status(writer, 404, f"unknown job {job_id}")
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, self.daemon.cancel, job_id)
        except Exception as exc:  # the daemon's failure, not the connection's
            _LOG.exception("daemon did not cancel job %s", job_id)
            return await send_status(writer, 500, f"job not cancelled: {exc}")
        await send_json(writer, 202, {"job_id": job_id, "cancel": "requested"})
        return 202

    async def _get_result(self, writer, tenant: Tenant, job_id: str) -> int:
        if not self._visible(tenant, job_id):
            return await send_status(writer, 404, f"unknown job {job_id}")
        loop = asyncio.get_running_loop()
        try:
            status = await loop.run_in_executor(None, self._status, job_id)
        except JobStateError:
            return await send_status(writer, 404, f"unknown job {job_id}")
        if status["state"] != JobState.SUCCEEDED:
            return await send_status(
                writer, 409, f"job {job_id} is {status['state']}, not succeeded"
            )
        path = (status.get("result") or {}).get("artifact_path")
        if not path or not os.path.exists(path):
            return await send_status(
                writer, 404, f"artifact of job {job_id} was evicted"
            )
        size = os.path.getsize(path)
        body, _ = await send_chunked(
            writer,
            200,
            _file_chunks(loop, path),
            extra_headers={
                "X-Metaprep-Job": job_id,
                "X-Metaprep-Artifact-Bytes": str(size),
            },
        )
        self.counters.count("bytes_streamed", body)
        return 200

    async def _get_metrics(self, writer) -> int:
        from repro.telemetry.exporters import prometheus_textfile

        counters = dict(self.counters.snapshot())
        gauges: Dict[str, float] = {}
        doc = self.daemon.metrics()
        for name, value in doc["store"].items():
            counters[f"store.{name}"] = value
        gauges["service.queue_depth"] = doc["queue_depth"]
        gauges["service.running_jobs"] = doc["running"]
        for state, n in doc["jobs_by_state"].items():
            gauges[f"service.jobs_{state}"] = n
        text = prometheus_textfile(counters, gauges)
        body = text.encode("utf-8")
        from repro.gateway.http import send_response

        await send_response(
            writer, 200, body, content_type="text/plain; version=0.0.4"
        )
        return 200


async def send_status(
    writer, status: int, message: str, retry_after: float | None = None
) -> int:
    """One-line JSON error/status body, optionally with Retry-After."""
    headers = {}
    if retry_after is not None:
        headers["Retry-After"] = f"{max(retry_after, 0.001):.3f}"
    await send_json(writer, status, {"error": message}, extra_headers=headers)
    return status


async def _file_chunks(
    loop: asyncio.AbstractEventLoop, path: str
) -> AsyncIterator[bytes]:
    """Read a file in executor-backed chunks (never block the loop)."""
    fh = open(path, "rb")
    try:
        while True:
            chunk = await loop.run_in_executor(None, fh.read, STREAM_CHUNK_BYTES)
            if not chunk:
                return
            yield chunk
    finally:
        fh.close()

"""Client side of the filesystem-spool service protocol.

A client never touches queue state directly: submissions are dropped
into ``<spool>/submit/`` with an atomic rename (the daemon consumes
them), cancellation is a flag file in ``<spool>/cancel/``, and status is
read back from the daemon's result documents — falling back to a
read-only replay of the event log for jobs still in flight.  Client and
daemon therefore need nothing in common but a shared directory, which
is what lets ``metaprep submit`` work against a daemon in another
process, container, or node sharing a filesystem.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.seqio.tables import read_table
from repro.service.daemon import CANCEL_DIR, RESULTS_DIR, SUBMIT_DIR
from repro.service.jobs import JobState, JobStateError, PartitionJob
from repro.service.queue import EventLog, replay_records
from repro.util.logging import get_logger

_LOG = get_logger("service.client")


def poll_schedule(
    initial: float = 0.01, factor: float = 2.0, cap: float = 0.5
):
    """Deterministic jitterless backoff schedule for status polling.

    Yields ``initial, initial*factor, ...`` capped at ``cap`` forever.
    Shared by :meth:`ServiceClient.wait` and the HTTP-mode
    :class:`repro.gateway.client.GatewayClient` so both clients poll a
    fresh job eagerly and a long-running one gently.
    """
    delay = initial
    while True:
        yield delay
        delay = min(delay * factor, cap)


class ServiceClient:
    """Submit/status/result/cancel against one spool directory."""

    def __init__(self, spool_dir: str | os.PathLike) -> None:
        self.spool_dir = Path(spool_dir)
        for sub in (SUBMIT_DIR, CANCEL_DIR, RESULTS_DIR):
            (self.spool_dir / sub).mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def submit(
        self,
        units: Sequence,
        config: Dict | None = None,
        max_retries: int = 2,
        timeout_seconds: float | None = None,
    ) -> str:
        """Queue a partition job; returns its job id immediately.

        The drop file is named ``<submitted_at>-<job_id>.json`` so the
        daemon's sorted ingest preserves submission order.
        """
        job = PartitionJob(
            units=list(units),
            config=dict(config or {}),
            max_retries=max_retries,
            timeout_seconds=timeout_seconds,
        )
        submit_dir = self.spool_dir / SUBMIT_DIR
        final = submit_dir / f"{job.submitted_at:017.6f}-{job.job_id}.json"
        tmp = submit_dir / f".{uuid.uuid4().hex}.part"
        tmp.write_text(json.dumps(job.to_dict(), sort_keys=True))
        os.replace(tmp, final)  # atomic: the daemon never sees a torn file
        _LOG.info("submitted job %s", job.job_id)
        return job.job_id

    # ------------------------------------------------------------------
    def status(self, job_id: str) -> Dict:
        """Current status document of one job."""
        result_path = self.spool_dir / RESULTS_DIR / f"{job_id}.json"
        if result_path.exists():
            return json.loads(result_path.read_text())
        # submit/ before the log: the daemon appends a job's event and
        # only then unlinks its drop file, so a job absent from submit/
        # is already in the log — replaying first would let an ingest
        # slip between the two looks and hide the job from both
        pending = None
        for path in (self.spool_dir / SUBMIT_DIR).glob(f"*-{job_id}.json"):
            try:
                pending = json.loads(path.read_text())
            except FileNotFoundError:
                pass  # ingested since the glob: the log has it now
        records = replay_records(EventLog(self.spool_dir / "events.jsonl"))
        if job_id in records:
            return records[job_id].status_dict()
        if pending is not None:  # submitted, not yet ingested
            return {
                "job_id": job_id,
                "state": JobState.QUEUED,
                "attempt": 0,
                "error": None,
                "result": {},
                "metrics": {},
                "submitted_at": pending.get("submitted_at"),
                "started_at": None,
                "finished_at": None,
            }
        raise JobStateError(f"unknown job {job_id}")

    def list_jobs(self) -> List[Dict]:
        """Status documents of every job the spool knows, oldest first.

        Includes submissions still sitting in ``submit/`` that no daemon
        has ingested yet (reported as ``queued``, attempt 0).
        """
        records = replay_records(EventLog(self.spool_dir / "events.jsonl"))
        statuses = [r.status_dict() for r in records.values()]
        for path in sorted((self.spool_dir / SUBMIT_DIR).glob("*.json")):
            spec = json.loads(path.read_text())
            if spec.get("job_id") in records:
                continue
            statuses.append(
                {
                    "job_id": spec.get("job_id", "?"),
                    "state": JobState.QUEUED,
                    "attempt": 0,
                    "error": None,
                    "result": {},
                    "metrics": {},
                    "submitted_at": spec.get("submitted_at"),
                    "started_at": None,
                    "finished_at": None,
                }
            )
        return statuses

    # ------------------------------------------------------------------
    def result(self, job_id: str) -> Tuple[np.ndarray, Dict]:
        """The finished partition: (global label array, result info).

        Raises :class:`JobStateError` unless the job has succeeded.
        """
        status = self.status(job_id)
        if status["state"] != JobState.SUCCEEDED:
            raise JobStateError(
                f"job {job_id} is {status['state']}"
                + (f": {status['error']}" if status.get("error") else "")
            )
        info = status["result"]
        path = info.get("artifact_path")
        if not path or not os.path.exists(path):
            raise JobStateError(
                f"job {job_id} succeeded but its partition artifact is gone "
                f"({path}); it may have been evicted from the store"
            )
        _, arrays = read_table(path, expect_schema="metaprep/partition-artifact")
        return arrays["labels"], info

    # ------------------------------------------------------------------
    def cancel(self, job_id: str) -> None:
        """Request cancellation (effective at the job's next pass
        boundary if it is already running)."""
        (self.spool_dir / CANCEL_DIR / job_id).touch()

    # ------------------------------------------------------------------
    def wait(
        self, job_id: str, timeout: float = 60.0, poll_cap: float = 0.5
    ) -> Dict:
        """Block until the job reaches a terminal state; returns it.

        Polls on the deterministic exponential schedule of
        :func:`poll_schedule` (10 ms doubling to ``poll_cap``) instead
        of a fixed interval: a short job is observed within
        milliseconds, a long one costs a couple of status reads per
        second instead of twenty.
        """
        deadline = time.monotonic() + timeout
        schedule = poll_schedule(cap=poll_cap)
        while True:
            status = self.status(job_id)
            if status["state"] in JobState.TERMINAL:
                return status
            now = time.monotonic()
            if now > deadline:
                raise TimeoutError(
                    f"job {job_id} still {status['state']} after {timeout}s"
                )
            time.sleep(min(next(schedule), max(deadline - now, 0.0)))

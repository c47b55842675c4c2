"""Durable job queue and concurrent scheduler.

Durability model: the queue is *event-sourced*.  Every mutation appends
one :class:`~repro.service.jobs.JobEvent` line to ``events.jsonl`` in
the spool directory; in-memory state is always reconstructible by
:meth:`JobQueue.recover`, which replays the log and demotes jobs that
were ``running`` when the previous daemon died back to ``queued`` (their
per-pass pipeline checkpoints make the re-run resume, not restart).
Nothing is ever rewritten in place, so a daemon kill at any byte
boundary loses at most a torn final line (ignored on replay).

Scheduling model: :class:`Scheduler` runs up to ``max_concurrent`` jobs
at once on as many long-lived job threads, each driving the PR-1
executor layer underneath.  Failures are retried up to the job's
``max_retries`` with exponential backoff; timeouts and cancellations are
cooperative — the running pipeline observes them at pass boundaries
through its event sink (see :class:`JobControl`) — and are terminal,
not retried.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Union

from repro.service.jobs import (
    JobCancelled,
    JobEvent,
    JobRecord,
    JobState,
    JobStateError,
    JobTimeout,
    PartitionJob,
)
from repro.util.logging import get_logger

_LOG = get_logger("service.queue")


class EventLog:
    """Append-only JSONL event persistence (thread-safe)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()

    def append(self, event: JobEvent) -> None:
        line = event.to_json()
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()

    def replay(self) -> List[JobEvent]:
        """All intact events, oldest first.  A torn trailing line (daemon
        killed mid-write) is skipped, not fatal."""
        if not self.path.exists():
            return []
        events: List[JobEvent] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(JobEvent.from_json(line))
                except (ValueError, KeyError):
                    _LOG.warning("skipping corrupt event line: %.80s", line)
        return events


def replay_records(events: EventLog) -> "Dict[str, JobRecord]":
    """Fold an event log into per-job records (insertion-ordered dict).

    Pure read: shared by :meth:`JobQueue.recover` (which then demotes
    orphaned running jobs) and by the client's read-only status queries.
    """
    records: Dict[str, JobRecord] = {}
    for event in events.replay():
        if event.type == "submitted":
            job = PartitionJob.from_dict(event.payload["job"])
            records[job.job_id] = JobRecord(job=job)
            continue
        record = records.get(event.job_id)
        if record is None:
            _LOG.warning(
                "event for unknown job %s ignored on replay", event.job_id
            )
            continue
        record.apply_event(event)
    return records


class FinishedJob(NamedTuple):
    """What the queue keeps of a job once it is terminal.  Its full
    status is in the event log (and the daemon's result document), so a
    long-lived queue holds a few bytes per finished job, not its spec
    and results."""

    job_id: str
    state: str

    @property
    def terminal(self) -> bool:
        return True


class JobQueue:
    """The durable queue: records + FIFO order, persisted as events.

    ``records`` maps every job id to its :class:`JobRecord` while the job
    is live and to a :class:`FinishedJob` once it is terminal.
    """

    def __init__(self, spool_dir: str | Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.events = EventLog(self.spool_dir / "events.jsonl")
        self.records: Dict[str, Union[JobRecord, FinishedJob]] = {}
        #: the jobs not yet terminal, in submission order: what
        #: :meth:`pending`, :meth:`active` and :meth:`counts` walk, so
        #: their cost follows the live jobs, not every job ever submitted
        self._live: Dict[str, JobRecord] = {}
        #: terminal state -> number of jobs that ended in it
        self._settled: Dict[str, int] = dict.fromkeys(JobState.TERMINAL, 0)

    # ------------------------------------------------------------------
    def submit(self, job: PartitionJob) -> JobRecord:
        if job.job_id in self.records:
            raise JobStateError(f"job {job.job_id} already submitted")
        record = JobRecord(job=job)
        self.records[job.job_id] = record
        self._live[job.job_id] = record
        self.events.append(
            JobEvent(
                job_id=job.job_id,
                type="submitted",
                state=JobState.QUEUED,
                payload={"job": job.to_dict()},
            )
        )
        _LOG.info("job %s queued (%d unit(s))", job.job_id, len(job.units))
        return record

    def get(self, job_id: str) -> Union[JobRecord, FinishedJob]:
        try:
            return self.records[job_id]
        except KeyError:
            raise JobStateError(f"unknown job {job_id}") from None

    def _in_state(self, state: str) -> List[JobRecord]:
        # list() copies the dict in one step, so a reader on another
        # thread (the gateway's metrics) never iterates it mid-change
        return [r for r in list(self._live.values()) if r.state == state]

    def pending(self) -> List[JobRecord]:
        """Queued records in submission order."""
        return self._in_state(JobState.QUEUED)

    def active(self) -> List[JobRecord]:
        return self._in_state(JobState.RUNNING)

    def counts(self) -> Dict[str, int]:
        """Number of jobs in each state."""
        counts = dict.fromkeys(JobState.ALL, 0)
        counts.update(self._settled)
        for record in list(self._live.values()):
            counts[record.state] += 1
        return counts

    # ------------------------------------------------------------------
    def transition(
        self, record: JobRecord, new_state: str, type: str | None = None, **payload
    ) -> None:
        """Validated state change, persisted before it is visible."""
        record.transition(new_state)
        if record.terminal:
            del self._live[record.job_id]
            self.records[record.job_id] = FinishedJob(record.job_id, new_state)
            self._settled[new_state] += 1
        self.events.append(
            JobEvent(
                job_id=record.job_id,
                type=type or new_state,
                state=new_state,
                attempt=record.attempt,
                payload=payload,
            )
        )

    def progress(self, record: JobRecord, type: str, **payload) -> None:
        """Non-transition progress mark (pass_complete, cache_hit, ...)."""
        self.events.append(
            JobEvent(
                job_id=record.job_id,
                type=type,
                attempt=record.attempt,
                payload=payload,
            )
        )

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job now; flag a running one for cooperative
        cancellation (the scheduler finalizes it).  Returns False if the
        job is already terminal."""
        record = self.get(job_id)
        if record.terminal:
            return False
        if record.state == JobState.QUEUED:
            self.transition(record, JobState.CANCELLED, type="cancelled")
        else:
            record.metrics["cancel_requested"] = True
        return True

    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Rebuild queue state from the event log.

        Jobs that were ``running`` when the log ends are demoted back to
        ``queued`` (with a ``recovered`` event): their worker threads
        died with the previous daemon, and their pipeline checkpoints
        let the re-run resume mid-multipass.  Returns the number of
        demoted jobs.
        """
        self.records = {}
        self._live = {}
        self._settled = dict.fromkeys(JobState.TERMINAL, 0)
        for job_id, record in replay_records(self.events).items():
            if record.terminal:
                self.records[job_id] = FinishedJob(job_id, record.state)
                self._settled[record.state] += 1
            else:
                self.records[job_id] = self._live[job_id] = record
        orphans = self.active()
        for record in orphans:
            self.transition(
                record,
                JobState.QUEUED,
                type="recovered",
                reason="daemon restarted while job was running",
            )
        if self.records:
            _LOG.info(
                "recovered queue: %d job(s), %d demoted from running",
                len(self.records),
                len(orphans),
            )
        return len(orphans)


# ----------------------------------------------------------------------
# scheduler
# ----------------------------------------------------------------------


@dataclass
class RetryPolicy:
    """Bounded retry with exponential backoff.

    Attempt ``n`` (1-based) failing schedules attempt ``n+1`` no earlier
    than ``base_delay * 2**(n-1)`` seconds later, capped at ``max_delay``.
    """

    base_delay: float = 0.5
    max_delay: float = 30.0

    def delay(self, failed_attempt: int) -> float:
        if failed_attempt < 1:
            raise ValueError(f"attempts are 1-based, got {failed_attempt}")
        return min(self.base_delay * 2 ** (failed_attempt - 1), self.max_delay)


@dataclass
class JobControl:
    """Cooperative cancellation/timeout handle given to a running job.

    The pipeline's event sink calls :meth:`check` at every pass boundary;
    a set cancel flag or an expired deadline aborts the run there (the
    pass checkpoint just written stays on disk for the next attempt).
    """

    cancel_event: threading.Event = field(default_factory=threading.Event)
    deadline: float | None = None
    clock: Callable[[], float] = time.monotonic

    def check(self) -> None:
        if self.cancel_event.is_set():
            raise JobCancelled("job cancelled")
        if self.deadline is not None and self.clock() > self.deadline:
            raise JobTimeout("job exceeded its time limit")


@dataclass
class _Slot:
    record: JobRecord
    control: JobControl
    coalesce_key: str | None = None
    outcome: Dict = field(default_factory=dict)  # filled by the job thread
    done: threading.Event = field(default_factory=threading.Event)


#: runner signature: (job record, control) -> result payload dict
JobRunner = Callable[[JobRecord, JobControl], Dict]


class Scheduler:
    """Runs queued jobs, up to ``max_concurrent`` at a time.

    The scheduler thread (whoever calls :meth:`tick`) owns all queue
    mutations; job threads only execute the runner and park its outcome
    in their slot.  ``sleep``/``clock`` are injectable so retry/backoff
    logic is unit-testable without real waiting.

    Job threads are long-lived: one is started the first time a job
    finds every existing thread busy, so there are never more than
    ``max_concurrent``, and :meth:`close` stops them.  Reusing them
    keeps the process at a fixed set of per-thread malloc arenas
    instead of adding one with every job.  A job thread sets
    :attr:`wake` when it finishes, so a driver that waits on that event
    reaps the job at once instead of at its next poll.

    ``coalesce`` (job record -> work key or None) enables in-flight
    deduplication: a pending job whose key matches a *running* job's is
    held back until that job finishes, so two identical submissions
    arriving together produce one computation and one cache hit instead
    of racing to compute the same artifact twice.
    """

    def __init__(
        self,
        queue: JobQueue,
        runner: JobRunner,
        max_concurrent: int = 2,
        retry: RetryPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        on_terminal: Optional[Callable[[JobRecord], None]] = None,
        coalesce: Optional[Callable[[JobRecord], Optional[str]]] = None,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        self.queue = queue
        self.runner = runner
        self.max_concurrent = max_concurrent
        self.retry = retry or RetryPolicy()
        self.clock = clock
        self.sleep = sleep
        self.on_terminal = on_terminal
        self.coalesce = coalesce
        self.wake = threading.Event()
        self._slots: Dict[str, _Slot] = {}
        self._threads: List[threading.Thread] = []
        #: slots waiting for a job thread; ``None`` tells one thread to exit
        self._work: "queue_mod.SimpleQueue[_Slot | None]" = queue_mod.SimpleQueue()

    # ------------------------------------------------------------------
    @property
    def running(self) -> List[str]:
        return sorted(self._slots)

    def idle(self) -> bool:
        return not self._slots and not self._startable(ignore_backoff=True)

    def _startable(self, ignore_backoff: bool = False) -> List[JobRecord]:
        now = self.clock()
        return [
            r
            for r in self.queue.pending()
            if ignore_backoff or r.not_before <= now
        ]

    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """One scheduling round: reap finished slots, start new jobs.
        Returns True if any state changed."""
        changed = self._reap()
        for record in self._startable():
            if len(self._slots) >= self.max_concurrent:
                break
            if self._coalesced(record):
                continue  # identical work already in flight; wait for it
            self._start(record)
            changed = True
        return changed

    def _coalesced(self, record: JobRecord) -> bool:
        if self.coalesce is None:
            return False
        key = self.coalesce(record)
        return key is not None and any(
            slot.coalesce_key == key for slot in self._slots.values()
        )

    def _begin(self, record: JobRecord) -> JobControl | None:
        """Mark the next attempt of ``record`` started; None if it was
        cancelled before it could start."""
        if record.metrics.get("cancel_requested"):
            self.queue.transition(record, JobState.CANCELLED, type="cancelled")
            self._finalize(record)
            return None
        record.attempt += 1
        record.started_at = time.time()
        deadline = None
        if record.job.timeout_seconds is not None:
            deadline = self.clock() + record.job.timeout_seconds
        self.queue.transition(
            record,
            JobState.RUNNING,
            type="started",
            queue_wait_seconds=max(0.0, record.started_at - record.job.submitted_at),
        )
        return JobControl(deadline=deadline, clock=self.clock)

    def _start(self, record: JobRecord) -> None:
        control = self._begin(record)
        if control is None:
            return
        slot = _Slot(
            record=record,
            control=control,
            coalesce_key=self.coalesce(record) if self.coalesce else None,
        )
        self._slots[record.job_id] = slot
        if len(self._threads) < len(self._slots):
            thread = threading.Thread(
                target=self._job_thread,
                name=f"metaprep-job-{len(self._threads)}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        self._work.put(slot)

    def _job_thread(self) -> None:
        while True:
            slot = self._work.get()
            if slot is None:
                return
            try:
                slot.outcome["result"] = self.runner(slot.record, slot.control)
            except BaseException as exc:  # noqa: BLE001 - forwarded to reap
                slot.outcome["error"] = exc
            slot.done.set()
            self.wake.set()

    def run_inline(self, record: JobRecord, runner: JobRunner) -> None:
        """Run one attempt of a queued job on the calling thread, outside
        the job slots, and settle it: for work that is already done, like
        a store hit, where a thread hand-off would cost more than the
        work.  The job's events are the same as through :meth:`tick`."""
        control = self._begin(record)
        if control is None:
            return
        slot = _Slot(record=record, control=control)
        try:
            slot.outcome["result"] = runner(record, control)
        except Exception as exc:  # noqa: BLE001 - settled like a job thread's
            slot.outcome["error"] = exc
        self._settle(slot)

    def _reap(self) -> bool:
        changed = False
        for job_id in list(self._slots):
            slot = self._slots[job_id]
            if slot.control.cancel_event.is_set() is False and slot.record.metrics.get(
                "cancel_requested"
            ):
                slot.control.cancel_event.set()
            if not slot.done.is_set():
                continue
            del self._slots[job_id]
            self._settle(slot)
            changed = True
        return changed

    def _settle(self, slot: _Slot) -> None:
        record, outcome = slot.record, slot.outcome
        error = outcome.get("error")
        if error is None:
            record.finished_at = time.time()
            self.queue.transition(
                record,
                JobState.SUCCEEDED,
                type="succeeded",
                result=outcome.get("result", {}),
                metrics=record.metrics,
            )
            record.result = dict(outcome.get("result", {}))
            self._finalize(record)
        elif isinstance(error, JobCancelled):
            record.finished_at = time.time()
            record.error = str(error)
            self.queue.transition(
                record, JobState.CANCELLED, type="cancelled", error=str(error)
            )
            self._finalize(record)
        elif isinstance(error, JobTimeout):
            record.finished_at = time.time()
            record.error = str(error)
            self.queue.transition(
                record, JobState.FAILED, type="timeout", error=str(error)
            )
            self._finalize(record)
        elif record.attempt <= record.job.max_retries:
            delay = self.retry.delay(record.attempt)
            record.not_before = self.clock() + delay
            record.error = f"{type(error).__name__}: {error}"
            self.queue.transition(
                record,
                JobState.QUEUED,
                type="retry_scheduled",
                error=record.error,
                retry_in_seconds=delay,
            )
            _LOG.warning(
                "job %s attempt %d failed (%s); retry in %.2fs",
                record.job_id,
                record.attempt,
                record.error,
                delay,
            )
        else:
            record.finished_at = time.time()
            record.error = f"{type(error).__name__}: {error}"
            self.queue.transition(
                record,
                JobState.FAILED,
                type="failed",
                error=record.error,
                metrics=record.metrics,
            )
            self._finalize(record)

    def _finalize(self, record: JobRecord) -> None:
        if self.on_terminal is not None:
            self.on_terminal(record)

    # ------------------------------------------------------------------
    def close(self, timeout: float | None = None) -> None:
        """Stop the job threads, each after its current job; the next
        job started starts a thread again."""
        for _ in self._threads:
            self._work.put(None)
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []

    def run_until_idle(self, poll_seconds: float = 0.02, timeout: float | None = None) -> None:
        """Drive ticks until no job is queued, backing off, or running."""
        start = self.clock()
        while True:
            self.tick()
            if not self._slots and not self.queue.pending():
                self.close()
                return
            if timeout is not None and self.clock() - start > timeout:
                raise TimeoutError(
                    f"scheduler not idle after {timeout}s: "
                    f"running={self.running}, "
                    f"pending={[r.job_id for r in self.queue.pending()]}"
                )
            self.sleep(poll_seconds)

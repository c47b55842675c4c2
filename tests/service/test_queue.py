"""Durable queue: event-log replay, recovery, and the scheduler's
retry/backoff/timeout/cancel/coalescing behavior with fake runners."""

import threading
import time

import pytest

from repro.service.jobs import (
    JobCancelled,
    JobEvent,
    JobState,
    JobStateError,
    JobTimeout,
    PartitionJob,
)
from repro.service.queue import (
    EventLog,
    JobControl,
    JobQueue,
    RetryPolicy,
    Scheduler,
    replay_records,
)


@pytest.fixture()
def fastq(tmp_path):
    path = tmp_path / "reads.fastq"
    path.write_text("@r0\nACGTACGT\n+\nIIIIIIII\n")
    return str(path)


def make_job(fastq, **kw):
    return PartitionJob(units=[fastq], **kw)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def sleep(self, dt):
        # scheduler "sleeps" by advancing virtual time; give the job
        # threads (which are real) a moment to finish
        self.t += max(dt, 0.05)
        time.sleep(0.002)


class TestEventLog:
    def test_append_replay(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.append(JobEvent(job_id="j-1", type="submitted", state="queued"))
        log.append(JobEvent(job_id="j-1", type="started", state="running"))
        events = log.replay()
        assert [e.type for e in events] == ["submitted", "started"]

    def test_missing_file_is_empty(self, tmp_path):
        assert EventLog(tmp_path / "none.jsonl").replay() == []

    def test_torn_trailing_line_skipped(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.append(JobEvent(job_id="j-1", type="submitted", state="queued"))
        with open(log.path, "a") as fh:
            fh.write('{"job_id": "j-2", "ty')  # daemon killed mid-write
        events = log.replay()
        assert len(events) == 1
        assert events[0].job_id == "j-1"

    def test_replay_records_ignores_unknown_job_events(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl")
        log.append(JobEvent(job_id="j-ghost", type="started", state="running"))
        assert replay_records(log) == {}


class TestJobQueue:
    def test_submit_and_order(self, tmp_path, fastq):
        queue = JobQueue(tmp_path)
        jobs = [make_job(fastq) for _ in range(3)]
        for job in jobs:
            queue.submit(job)
        assert [r.job_id for r in queue.pending()] == [j.job_id for j in jobs]
        assert queue.active() == []

    def test_duplicate_submit_rejected(self, tmp_path, fastq):
        queue = JobQueue(tmp_path)
        job = make_job(fastq)
        queue.submit(job)
        with pytest.raises(JobStateError, match="already submitted"):
            queue.submit(job)

    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(JobStateError, match="unknown job"):
            JobQueue(tmp_path).get("j-nope")

    def test_cancel_queued_is_immediate(self, tmp_path, fastq):
        queue = JobQueue(tmp_path)
        record = queue.submit(make_job(fastq))
        assert queue.cancel(record.job_id)
        assert record.state == JobState.CANCELLED
        assert not queue.cancel(record.job_id)  # already terminal

    def test_cancel_running_sets_flag(self, tmp_path, fastq):
        queue = JobQueue(tmp_path)
        record = queue.submit(make_job(fastq))
        record.attempt = 1
        queue.transition(record, JobState.RUNNING, type="started")
        assert queue.cancel(record.job_id)
        assert record.state == JobState.RUNNING
        assert record.metrics["cancel_requested"]

    def test_recover_demotes_running(self, tmp_path, fastq):
        queue = JobQueue(tmp_path)
        done = queue.submit(make_job(fastq))
        orphan = queue.submit(make_job(fastq))
        waiting = queue.submit(make_job(fastq))
        queue.transition(done, JobState.RUNNING, type="started")
        queue.transition(done, JobState.SUCCEEDED, type="succeeded",
                         result={"ok": True})
        queue.transition(orphan, JobState.RUNNING, type="started")

        fresh = JobQueue(tmp_path)  # simulated daemon restart
        assert fresh.recover() == 1
        states = {j: fresh.get(j).state for j in fresh.records}
        assert states[done.job_id] == JobState.SUCCEEDED
        assert states[orphan.job_id] == JobState.QUEUED
        assert states[waiting.job_id] == JobState.QUEUED
        assert len(fresh.records) == 3
        types = [e.type for e in fresh.events.replay()
                 if e.job_id == orphan.job_id]
        assert types[-1] == "recovered"


    def test_pending_is_fifo_after_retries_and_recovery(self, tmp_path, fastq):
        queue = JobQueue(tmp_path)
        a, b, c, d = (queue.submit(make_job(fastq)) for _ in range(4))
        order = [r.job_id for r in (a, b, c, d)]
        # a fails and goes back to queued; c finishes; b is left running
        for record in (a, b, c):
            record.attempt = 1
            queue.transition(record, JobState.RUNNING, type="started")
        queue.transition(a, JobState.QUEUED, type="retry_scheduled")
        queue.transition(c, JobState.SUCCEEDED, type="succeeded")
        assert [r.job_id for r in queue.pending()] == [order[0], order[3]]
        assert [r.job_id for r in queue.active()] == [order[1]]

        fresh = JobQueue(tmp_path)  # restart: b is demoted back to queued
        assert fresh.recover() == 1
        assert [r.job_id for r in fresh.pending()] == [order[0], order[1], order[3]]

    def test_finished_jobs_leave_the_live_set(self, tmp_path, fastq):
        queue = JobQueue(tmp_path)
        records = [queue.submit(make_job(fastq)) for _ in range(6)]
        for record, end in zip(records[:4], (JobState.SUCCEEDED,) * 3 + (JobState.FAILED,)):
            queue.transition(record, JobState.RUNNING, type="started")
            queue.transition(record, end)
        queue.cancel(records[4].job_id)
        assert queue.counts() == {
            JobState.QUEUED: 1, JobState.RUNNING: 0, JobState.SUCCEEDED: 3,
            JobState.FAILED: 1, JobState.CANCELLED: 1,
        }
        # what pending() and counts() walk is the one live job
        assert list(queue._live) == [records[5].job_id]
        # every job keeps its id and state; a finished one keeps no spec
        assert len(queue.records) == 6
        finished = queue.get(records[0].job_id)
        assert finished.state == JobState.SUCCEEDED and finished.terminal
        assert not hasattr(finished, "job")
        assert not queue.cancel(records[0].job_id)
        fresh = JobQueue(tmp_path)
        fresh.recover()
        assert fresh.counts() == queue.counts()
        assert list(fresh._live) == list(queue._live)


class TestRetryPolicy:
    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=5.0)
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 5.0]

    def test_attempts_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            RetryPolicy().delay(0)


class TestJobControl:
    def test_cancel_raises(self):
        control = JobControl()
        control.check()  # clean
        control.cancel_event.set()
        with pytest.raises(JobCancelled):
            control.check()

    def test_deadline_raises(self):
        clock = FakeClock(t=10.0)
        control = JobControl(deadline=12.0, clock=clock)
        control.check()
        clock.t = 12.5
        with pytest.raises(JobTimeout):
            control.check()


class SchedulerHarness:
    """A queue + scheduler over a scripted runner and a virtual clock."""

    def __init__(self, tmp_path, runner, **sched_kw):
        self.clock = FakeClock()
        self.queue = JobQueue(tmp_path)
        self.terminal = []
        self.scheduler = Scheduler(
            self.queue,
            runner=runner,
            clock=self.clock,
            sleep=self.clock.sleep,
            on_terminal=self.terminal.append,
            **sched_kw,
        )

    def drain(self, timeout=100.0):
        self.scheduler.run_until_idle(timeout=timeout)


class TestScheduler:
    def test_success_path(self, tmp_path, fastq):
        h = SchedulerHarness(tmp_path, lambda r, c: {"answer": 42})
        record = h.queue.submit(make_job(fastq))
        h.drain()
        assert record.state == JobState.SUCCEEDED
        assert record.attempt == 1
        assert record.result == {"answer": 42}
        assert [r.job_id for r in h.terminal] == [record.job_id]

    def test_failure_retried_with_backoff_then_succeeds(self, tmp_path, fastq):
        attempts = []

        def flaky(record, control):
            attempts.append(record.attempt)
            if len(attempts) < 3:
                raise RuntimeError("transient")
            return {"ok": True}

        h = SchedulerHarness(
            tmp_path, flaky, retry=RetryPolicy(base_delay=2.0, max_delay=60.0)
        )
        record = h.queue.submit(make_job(fastq, max_retries=3))
        h.drain()
        assert record.state == JobState.SUCCEEDED
        assert attempts == [1, 2, 3]
        delays = [
            e.payload["retry_in_seconds"]
            for e in h.queue.events.replay()
            if e.type == "retry_scheduled"
        ]
        assert delays == [2.0, 4.0]

    def test_backoff_actually_delays_restart(self, tmp_path, fastq):
        def failing(record, control):
            raise RuntimeError("nope")

        h = SchedulerHarness(
            tmp_path, failing, retry=RetryPolicy(base_delay=10.0)
        )
        record = h.queue.submit(make_job(fastq, max_retries=1))
        h.scheduler.tick()  # starts attempt 1
        deadline = time.monotonic() + 5.0
        # first attempt fails; the retry must not start before the backoff
        while record.state != JobState.QUEUED or h.scheduler.running:
            assert time.monotonic() < deadline, "attempt 1 never settled"
            time.sleep(0.002)
            h.scheduler.tick()
        assert record.state == JobState.QUEUED
        assert record.not_before == pytest.approx(h.clock.t + 10.0)
        assert h.scheduler.tick() is False  # still backing off
        h.clock.t += 11.0
        h.scheduler.tick()
        assert record.attempt == 2

    def test_retries_exhausted_fails(self, tmp_path, fastq):
        def failing(record, control):
            raise ValueError("permanent")

        h = SchedulerHarness(tmp_path, failing,
                             retry=RetryPolicy(base_delay=0.01))
        record = h.queue.submit(make_job(fastq, max_retries=2))
        h.drain()
        assert record.state == JobState.FAILED
        assert record.attempt == 3  # 1 initial + 2 retries
        assert "ValueError: permanent" in record.error

    def test_timeout_is_terminal_not_retried(self, tmp_path, fastq):
        def slow(record, control):
            raise JobTimeout("job exceeded its time limit")

        h = SchedulerHarness(tmp_path, slow)
        record = h.queue.submit(make_job(fastq, max_retries=5))
        h.drain()
        assert record.state == JobState.FAILED
        assert record.attempt == 1
        assert "time limit" in record.error

    def test_running_job_cancelled_cooperatively(self, tmp_path, fastq):
        started = threading.Event()

        def waits_for_cancel(record, control):
            started.set()
            for _ in range(2000):
                control.check()
                time.sleep(0.002)
            raise AssertionError("cancel flag never observed")

        h = SchedulerHarness(tmp_path, waits_for_cancel)
        record = h.queue.submit(make_job(fastq))
        h.scheduler.tick()
        assert started.wait(5.0)
        h.queue.cancel(record.job_id)
        h.drain()
        assert record.state == JobState.CANCELLED

    def test_cancelled_before_start_never_runs(self, tmp_path, fastq):
        ran = []
        h = SchedulerHarness(tmp_path, lambda r, c: ran.append(r.job_id))
        record = h.queue.submit(make_job(fastq))
        record.metrics["cancel_requested"] = True
        h.drain()
        assert record.state == JobState.CANCELLED
        assert ran == []

    def test_concurrency_cap_respected(self, tmp_path, fastq):
        gate = threading.Event()
        peak = []

        def blocked(record, control):
            peak.append(record.job_id)
            gate.wait(5.0)
            return {}

        h = SchedulerHarness(tmp_path, blocked, max_concurrent=2)
        for _ in range(4):
            h.queue.submit(make_job(fastq))
        h.scheduler.tick()
        assert len(h.scheduler.running) == 2
        gate.set()
        h.drain()
        assert all(r.state == JobState.SUCCEEDED
                   for r in h.queue.records.values())

    def test_identical_inflight_work_coalesces(self, tmp_path, fastq):
        gate = threading.Event()
        running_same_key = []

        def blocked(record, control):
            running_same_key.append(record.job_id)
            gate.wait(5.0)
            return {}

        h = SchedulerHarness(
            tmp_path, blocked, max_concurrent=4,
        )
        h.scheduler.coalesce = lambda record: "same-work"
        for _ in range(3):
            h.queue.submit(make_job(fastq))
        h.scheduler.tick()
        # identical work: only one of the three may run at a time
        assert len(h.scheduler.running) == 1
        gate.set()
        h.drain()
        assert all(r.state == JobState.SUCCEEDED
                   for r in h.queue.records.values())

    def test_job_threads_are_reused(self, tmp_path, fastq):
        threads = set()  # Thread objects, so a recycled ident cannot hide one

        def runner(record, control):
            threads.add(threading.current_thread())
            return {}

        h = SchedulerHarness(tmp_path, runner, max_concurrent=2)
        for _ in range(20):
            h.queue.submit(make_job(fastq))
        h.drain()
        assert len(h.terminal) == 20
        assert 1 <= len(threads) <= 2
        # drained: run_until_idle stopped the job threads
        assert not any(thread.is_alive() for thread in threads)

    def test_finished_job_sets_wake(self, tmp_path, fastq):
        gate = threading.Event()
        h = SchedulerHarness(tmp_path, lambda r, c: gate.wait(5.0) and {})
        h.queue.submit(make_job(fastq))
        h.scheduler.tick()
        h.scheduler.wake.clear()
        gate.set()
        assert h.scheduler.wake.wait(5.0)
        assert h.scheduler.tick() is True  # reaped without any poll sleep
        h.scheduler.close(timeout=5.0)

    def test_run_inline_writes_the_same_events(self, tmp_path, fastq):
        h = SchedulerHarness(tmp_path, lambda r, c: {"threaded": True})
        record = h.queue.submit(make_job(fastq))
        h.scheduler.run_inline(record, lambda r, c: {"inline": True})
        assert record.state == JobState.SUCCEEDED
        assert record.result == {"inline": True}
        assert h.terminal == [record]
        assert h.scheduler.running == []
        assert [e.type for e in h.queue.events.replay()] == [
            "submitted", "started", "succeeded"
        ]

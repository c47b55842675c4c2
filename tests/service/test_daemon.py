"""End-to-end service tests: the spool protocol, content-addressed cache
hits, crash-retry-resume, and daemon restart recovery.

These are the acceptance tests of the job service subsystem: everything
runs the real pipeline on the tiny HG analogue through a real
:class:`ServeDaemon` over a real spool directory.
"""

import json
import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

import repro.core.pipeline as pipeline_mod
import repro.index.create as create_mod
from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.service import store as store_mod
from repro.service.client import ServiceClient
from repro.service.daemon import CHECKPOINTS_DIR, METRICS_DIR, ServeDaemon
from repro.service.jobs import JobRecord, JobState, PartitionJob
from repro.service.queue import JobQueue, RetryPolicy

HAS_FORK = "fork" in mp.get_all_start_methods()

CFG = {"k": 21, "m": 5, "n_tasks": 2, "n_threads": 2, "n_passes": 2}


def events_of(spool, job_id, type_=None):
    events = JobQueue(spool).events.replay()
    return [
        e for e in events
        if e.job_id == job_id and (type_ is None or e.type == type_)
    ]


class TestEndToEndCache:
    def test_second_identical_submit_is_a_cache_hit(
        self, tiny_hg, tmp_path, monkeypatch
    ):
        index_calls = []
        original_index_create = create_mod.index_create

        def counting(*args, **kwargs):
            index_calls.append(args)
            return original_index_create(*args, **kwargs)

        monkeypatch.setattr(create_mod, "index_create", counting)

        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        j1 = client.submit(tiny_hg.units, config=CFG)
        j2 = client.submit(tiny_hg.units, config=CFG)  # identical
        j3 = client.submit(tiny_hg.units, config=dict(CFG, k=23))  # distinct

        daemon = ServeDaemon(spool, max_concurrent=2)
        daemon.run_until_idle()

        s1, s2, s3 = (client.status(j) for j in (j1, j2, j3))
        assert [s["state"] for s in (s1, s2, s3)] == [JobState.SUCCEEDED] * 3
        assert [s["attempt"] for s in (s1, s2, s3)] == [1, 1, 1]

        # the identical resubmission hit the partition cache: no
        # IndexCreate, no passes — only j1 and j3 computed anything
        assert s1["result"]["cache_hit"] is False
        assert s2["result"]["cache_hit"] is True
        assert s3["result"]["cache_hit"] is False
        assert s2["metrics"]["partition_cache"] == "hit"
        assert len(index_calls) == 2
        assert daemon.store.stats.hits >= 1
        assert events_of(spool, j2, "pass_complete") == []
        assert len(events_of(spool, j1, "pass_complete")) == CFG["n_passes"]

        # cached result is bit-identical to the computed one and to a
        # direct in-process MetaPrep run
        labels1, info1 = client.result(j1)
        labels2, info2 = client.result(j2)
        assert np.array_equal(labels1, labels2)
        assert info1["artifact_key"] == info2["artifact_key"]
        direct = MetaPrep(
            PipelineConfig(write_outputs=False, **CFG)
        ).run(tiny_hg.units)
        assert np.array_equal(labels1, direct.partition.labels)
        assert info1["n_components"] == direct.partition.summary.n_components

    def test_queue_wait_and_run_metrics_published(self, tiny_hg, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        job_id = client.submit(tiny_hg.units, config=CFG)
        ServeDaemon(spool).run_until_idle()
        status = client.status(job_id)
        assert status["metrics"]["partition_cache"] == "miss"
        assert status["metrics"]["index_cache"] == "miss"
        assert status["metrics"]["run_seconds"] > 0
        assert status["metrics"]["total_tuples"] > 0
        assert set(status["metrics"]["measured_seconds"])  # per-step times
        assert status["started_at"] >= status["submitted_at"]
        assert status["finished_at"] >= status["started_at"]


# ---- crash injection --------------------------------------------------
# Module-level stand-in for the pipeline's chunk worker (the PR-1 crash
# seam): under the fork start method the pool's children inherit the
# parent's monkeypatched module state, so the kill happens *inside a
# worker process*, mid-multipass.

_ORIGINAL_CHUNK_TASK = pipeline_mod._kmergen_chunk_task
_FAULT = {"marker": None}


def _die_once_in_second_pass(job):
    if job.bin_lo > 0 and _FAULT["marker"]:
        try:
            with open(_FAULT["marker"], "x"):
                pass
        except FileExistsError:
            pass  # already crashed once: run clean this time
        else:
            os._exit(23)  # simulates segfault/OOM-kill, no exception
    return _ORIGINAL_CHUNK_TASK(job)


@pytest.mark.skipif(not HAS_FORK, reason="requires fork start method")
class TestCrashRetryResume:
    def test_killed_worker_retries_and_resumes_from_checkpoint(
        self, tiny_hg, tmp_path, monkeypatch
    ):
        cfg = dict(CFG, n_passes=3)
        reference = MetaPrep(
            PipelineConfig(write_outputs=False, **cfg)
        ).run(tiny_hg.units)

        _FAULT["marker"] = str(tmp_path / "crashed-once")
        monkeypatch.setattr(
            pipeline_mod, "_kmergen_chunk_task", _die_once_in_second_pass
        )
        try:
            spool = tmp_path / "spool"
            client = ServiceClient(spool)
            job_id = client.submit(tiny_hg.units, config=cfg)
            daemon = ServeDaemon(
                spool,
                executor="process",
                max_workers=2,
                retry=RetryPolicy(base_delay=0.01),
            )
            daemon.run_until_idle()
        finally:
            _FAULT["marker"] = None

        status = client.status(job_id)
        assert status["state"] == JobState.SUCCEEDED
        assert status["attempt"] == 2  # one kill, one clean retry

        retries = events_of(spool, job_id, "retry_scheduled")
        assert len(retries) == 1
        assert "worker died" in retries[0].payload["error"]

        # attempt 1 checkpointed pass 0 before dying in pass 1; the retry
        # resumed mid-multipass instead of starting over
        completed = {
            e.attempt: [] for e in events_of(spool, job_id, "pass_complete")
        }
        for e in events_of(spool, job_id, "pass_complete"):
            completed[e.attempt].append(e.payload["pass_index"])
        assert completed[1] == [0]
        assert completed[2] == [1, 2]

        # and the final partition equals the uninterrupted run exactly
        labels, _ = client.result(job_id)
        assert np.array_equal(labels, reference.partition.labels)


class TestDaemonRestart:
    def test_queue_drains_after_restart_without_dup_or_loss(
        self, tiny_hg, tmp_path
    ):
        spool = tmp_path / "spool"
        for sub in ("submit", "cancel", "results", "checkpoints"):
            (spool / sub).mkdir(parents=True)
        cfg = dict(CFG, n_passes=1)

        # simulate a daemon that ingested three jobs and was killed while
        # the second was running
        queue = JobQueue(spool)
        jobs = [
            PartitionJob(units=list(tiny_hg.units), config=cfg)
            for _ in range(3)
        ]
        records = [queue.submit(job) for job in jobs]
        records[1].attempt = 1
        queue.transition(records[1], JobState.RUNNING, type="started")

        daemon = ServeDaemon(spool)  # restart: replays the event log
        demoted = [
            e for e in queue.events.replay() if e.type == "recovered"
        ]
        assert [e.job_id for e in demoted] == [jobs[1].job_id]
        daemon.run_until_idle()

        client = ServiceClient(spool)
        assert len(daemon.queue.records) == 3  # nothing lost, nothing duped
        for job in jobs:
            assert client.status(job.job_id)["state"] == JobState.SUCCEEDED
            assert len(events_of(spool, job.job_id, "submitted")) == 1
            terminal = [
                e for e in events_of(spool, job.job_id)
                if e.state in JobState.TERMINAL
            ]
            assert len(terminal) == 1
            assert (spool / "results" / f"{job.job_id}.json").exists()

    def test_restarted_daemon_serves_status_of_old_jobs(
        self, tiny_hg, tmp_path
    ):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        job_id = client.submit(tiny_hg.units, config=dict(CFG, n_passes=1))
        ServeDaemon(spool).run_until_idle()

        fresh = ServeDaemon(spool)  # no submissions this lifetime
        assert fresh.queue.get(job_id).state == JobState.SUCCEEDED
        assert fresh.idle()


class TestCancellationAndSpool:
    def test_cancel_before_daemon_runs(self, tiny_hg, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        job_id = client.submit(tiny_hg.units, config=CFG)
        client.cancel(job_id)
        daemon = ServeDaemon(spool)
        daemon.run_until_idle()
        assert client.status(job_id)["state"] == JobState.CANCELLED
        assert len(events_of(spool, job_id, "pass_complete")) == 0

    def test_status_never_loses_a_job_to_a_concurrent_ingest(
        self, tiny_hg, tmp_path, monkeypatch
    ):
        """``status`` takes two looks (``submit/`` and the event log);
        the daemon moves a job from the first to the second.  Run the
        ingest exactly between the two looks: the job must be found —
        looking at the log first used to miss it in both places."""
        import pathlib

        import repro.service.client as client_mod

        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        daemon = ServeDaemon(spool)
        job_id = client.submit(tiny_hg.units, config=CFG)

        looks = []

        def after_look():
            looks.append(1)
            if len(looks) == 1:
                assert daemon._ingest() == 1

        real_glob, real_replay = pathlib.Path.glob, client_mod.replay_records

        def glob(self, pattern):
            found = list(real_glob(self, pattern))
            if self.name == "submit":
                after_look()
            return found

        def replay(log):
            records = real_replay(log)
            after_look()
            return records

        monkeypatch.setattr(pathlib.Path, "glob", glob)
        monkeypatch.setattr(client_mod, "replay_records", replay)
        assert client.status(job_id)["state"] == JobState.QUEUED
        assert len(looks) >= 2  # both looks happened, ingest in between

    def test_malformed_submission_rejected_not_fatal(self, tiny_hg, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        (spool / "submit" / "00-garbage.json").write_text("{not json")
        (spool / "submit" / "01-bad-spec.json").write_text(
            json.dumps({"job_id": "j-bad", "units": []})
        )
        good = client.submit(tiny_hg.units, config=dict(CFG, n_passes=1))
        daemon = ServeDaemon(spool)
        daemon.run_until_idle()
        assert client.status(good)["state"] == JobState.SUCCEEDED
        rejected = sorted(p.name for p in (spool / "submit").iterdir())
        assert rejected == ["00-garbage.rejected", "01-bad-spec.rejected"]

    def test_checkpoints_pruned_after_success(self, tiny_hg, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        # a stale checkpoint left behind by some long-dead job
        stale = spool / CHECKPOINTS_DIR / "j-dead" / "metaprep_checkpoint.bin"
        stale.parent.mkdir(parents=True)
        stale.write_bytes(b"stale")
        job_id = client.submit(tiny_hg.units, config=dict(CFG, n_passes=2))
        ServeDaemon(spool, keep_checkpoints=0).run_until_idle()
        assert client.status(job_id)["state"] == JobState.SUCCEEDED
        leftovers = list(
            (spool / CHECKPOINTS_DIR).rglob("metaprep_checkpoint.bin")
        )
        assert leftovers == []
        assert not stale.parent.exists()  # emptied job dir removed too


class TestServiceMetrics:
    """``metaprep serve`` publishes scrape-ready metrics under
    ``<spool>/metrics/`` — a JSON snapshot plus a Prometheus textfile."""

    def test_fresh_daemon_publishes_zeroed_snapshot(self, tmp_path):
        from repro.service.daemon import METRICS_DIR

        daemon = ServeDaemon(tmp_path / "spool")
        doc = daemon.metrics()
        assert doc["queue_depth"] == 0
        assert doc["running"] == 0
        assert set(doc["jobs_by_state"]) == set(JobState.ALL)
        metrics_dir = tmp_path / "spool" / METRICS_DIR
        assert (metrics_dir / "metrics.json").exists()  # written at boot
        prom = (metrics_dir / "metaprep.prom").read_text()
        assert "# TYPE metaprep_service_queue_depth gauge" in prom
        assert "metaprep_service_queue_depth 0" in prom
        assert "# TYPE metaprep_store_hits counter" in prom

    def test_metrics_track_jobs_through_lifecycle(self, tiny_hg, tmp_path):
        from repro.service.daemon import METRICS_DIR

        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        client.submit(tiny_hg.units, config=CFG)
        client.submit(tiny_hg.units, config=CFG)  # cache-hit twin
        daemon = ServeDaemon(spool)
        daemon.tick()  # ingest
        assert sum(daemon.metrics()["jobs_by_state"].values()) == 2
        daemon.run_until_idle()

        doc = json.loads(
            (spool / METRICS_DIR / "metrics.json").read_text()
        )
        assert doc["jobs_by_state"][JobState.SUCCEEDED] == 2
        assert doc["queue_depth"] == 0
        assert doc["running"] == 0
        assert doc["store"]["hits"] >= 1  # the twin hit the artifact store
        prom = (spool / METRICS_DIR / "metaprep.prom").read_text()
        assert "metaprep_service_jobs_succeeded 2" in prom
        assert f"metaprep_store_hits {doc['store']['hits']}" in prom

    def test_no_torn_files_in_metrics_dir(self, tiny_hg, tmp_path):
        from repro.service.daemon import METRICS_DIR

        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        client.submit(tiny_hg.units, config=CFG)
        ServeDaemon(spool).run_until_idle()
        names = sorted(p.name for p in (spool / METRICS_DIR).iterdir())
        assert names == ["metaprep.prom", "metrics.json"]  # no .tmp litter


# ---- in-process hand-off (the gateway's path) --------------------------
#: per-job event types as the spool path wrote them before the hand-off
#: existed; both paths must keep writing exactly these
MISS_EVENTS = ["submitted", "started", "index_ready", "pass_complete",
               "pass_complete", "run_complete", "succeeded"]
HIT_EVENTS = ["submitted", "started", "cache_hit", "succeeded"]
RESULT_KEYS = ["attempt", "error", "finished_at", "job_id", "metrics",
               "result", "started_at", "state", "submitted_at"]


@pytest.fixture()
def background():
    """Start daemons on background loops; stop them all at teardown."""
    started = []

    def start(daemon, poll_seconds=0.05):
        daemon.start_background(poll_seconds=poll_seconds)
        started.append(daemon)
        return daemon

    yield start
    for daemon in started:
        daemon.stop_background()


def fake_runner(threads):
    def run(record, control):
        threads.add(threading.current_thread())
        return {}

    return run


class TestInProcessHandoff:
    def test_hit_is_settled_before_submit_returns(
        self, tiny_hg, tmp_path, background
    ):
        spool = tmp_path / "spool"
        daemon = background(ServeDaemon(spool))
        client = ServiceClient(spool)

        miss = PartitionJob(units=tiny_hg.units, config=CFG)
        daemon.submit(miss)
        # acknowledged means logged: never "unknown job" after submit
        assert client.status(miss.job_id)["state"] in (
            JobState.QUEUED, JobState.RUNNING, JobState.SUCCEEDED
        )
        assert client.wait(miss.job_id, timeout=120)["state"] == JobState.SUCCEEDED

        threads_before = set(threading.enumerate())
        hit = PartitionJob(units=tiny_hg.units, config=CFG)
        daemon.submit(hit)
        status = client.status(hit.job_id)  # no wait, no sleep
        assert status["state"] == JobState.SUCCEEDED
        assert status["result"]["cache_hit"] is True
        assert sorted(status) == RESULT_KEYS
        assert set(threading.enumerate()) <= threads_before  # no job thread

        assert [e.type for e in events_of(spool, miss.job_id)] == MISS_EVENTS
        assert [e.type for e in events_of(spool, hit.job_id)] == HIT_EVENTS
        labels_miss, _ = client.result(miss.job_id)
        labels_hit, _ = client.result(hit.job_id)
        assert np.array_equal(labels_miss, labels_hit)

    def test_spool_hit_keeps_its_event_sequence(self, tiny_hg, tmp_path):
        spool = tmp_path / "spool"
        client = ServiceClient(spool)
        first = client.submit(tiny_hg.units, config=CFG)
        ServeDaemon(spool).run_until_idle()
        second = client.submit(tiny_hg.units, config=CFG)
        ServeDaemon(spool).run_until_idle()
        assert [e.type for e in events_of(spool, first)] == MISS_EVENTS
        assert [e.type for e in events_of(spool, second)] == HIT_EVENTS

    def test_handed_off_key_is_the_daemons_key(
        self, tiny_hg, tmp_path, background, monkeypatch
    ):
        # partition_key leaves executor knobs out, so the key a caller
        # computes without the daemon's overrides is the daemon's key
        daemon = ServeDaemon(tmp_path / "spool", executor="process", max_workers=2)
        job = PartitionJob(units=tiny_hg.units, config=CFG)
        key = store_mod.partition_key(job.pipeline_units(), job.pipeline_config())
        assert daemon._partition_key_of(JobRecord(job=job)) == key

        hashed = []
        real = store_mod.dataset_fingerprint
        monkeypatch.setattr(
            store_mod, "dataset_fingerprint",
            lambda units: hashed.append(units) or real(units),
        )
        daemon.scheduler.runner = fake_runner(set())
        background(daemon)
        handed = PartitionJob(units=tiny_hg.units, config=CFG)
        daemon.submit(handed, partition_key=key)
        ServiceClient(daemon.spool_dir).wait(handed.job_id, timeout=30)
        assert hashed == []  # the dataset was not hashed a second time

    def test_job_threads_reused_across_twenty_jobs(
        self, tiny_hg, tmp_path, background
    ):
        threads = set()
        daemon = ServeDaemon(tmp_path / "spool", max_concurrent=2)
        daemon.scheduler.runner = fake_runner(threads)
        background(daemon)
        client = ServiceClient(daemon.spool_dir)
        jobs = [PartitionJob(units=tiny_hg.units, config=CFG) for _ in range(20)]
        for job in jobs:
            daemon.submit(job)
        for job in jobs:
            assert client.wait(job.job_id, timeout=30)["state"] == JobState.SUCCEEDED
        assert 1 <= len(threads) <= 2

    def test_stop_background_is_prompt_and_leaves_no_thread(
        self, tiny_hg, tmp_path
    ):
        threads = set()
        daemon = ServeDaemon(tmp_path / "spool")
        daemon.scheduler.runner = fake_runner(threads)
        daemon.start_background(poll_seconds=2.0)
        loop_thread = daemon._bg_thread
        job = PartitionJob(units=tiny_hg.units, config=CFG)
        daemon.submit(job)
        ServiceClient(daemon.spool_dir).wait(job.job_id, timeout=30)
        t0 = time.monotonic()
        daemon.stop_background()
        assert time.monotonic() - t0 < 0.5  # well inside one 2 s poll
        assert threads and not loop_thread.is_alive()
        assert not any(thread.is_alive() for thread in threads)

    def test_ingest_error_reaches_the_caller(
        self, tiny_hg, tmp_path, background, monkeypatch
    ):
        daemon = background(ServeDaemon(tmp_path / "spool"))
        daemon.scheduler.runner = fake_runner(set())

        def disk_full(job):
            raise OSError("no space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(daemon.queue, "submit", disk_full)
            with pytest.raises(OSError, match="no space"):
                daemon.submit(PartitionJob(units=tiny_hg.units, config=CFG))
        # the loop survived and takes the next job
        job = PartitionJob(units=tiny_hg.units, config=CFG)
        daemon.submit(job)
        status = ServiceClient(daemon.spool_dir).wait(job.job_id, timeout=30)
        assert status["state"] == JobState.SUCCEEDED

    def test_handoff_without_a_loop_fails_instead_of_hanging(
        self, tiny_hg, tmp_path
    ):
        daemon = ServeDaemon(tmp_path / "spool")
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="not running"):
            daemon.submit(PartitionJob(units=tiny_hg.units, config=CFG))
        assert time.monotonic() - t0 < 5.0

    def test_metrics_snapshot_written_per_interval_and_at_stop(
        self, tiny_hg, tmp_path
    ):
        daemon = ServeDaemon(tmp_path / "spool")
        daemon.scheduler.runner = fake_runner(set())
        writes = []
        write = daemon.write_metrics
        daemon.write_metrics = lambda: writes.append(1) or write()
        daemon.start_background(poll_seconds=60.0)
        try:
            client = ServiceClient(daemon.spool_dir)
            for _ in range(3):
                job = PartitionJob(units=tiny_hg.units, config=CFG)
                daemon.submit(job)
                client.wait(job.job_id, timeout=30)
            assert writes == []  # no rewrite inside one poll interval
            assert daemon.metrics()["jobs_by_state"][JobState.SUCCEEDED] == 3
        finally:
            daemon.stop_background()
        assert writes == [1]  # flushed once when the loop stopped
        doc = json.loads(
            (daemon.spool_dir / METRICS_DIR / "metrics.json").read_text()
        )
        assert doc["jobs_by_state"][JobState.SUCCEEDED] == 3


class TestSpoolFromEarlierVersion:
    def test_log_and_drop_files_written_before_the_handoff_recover(
        self, tiny_hg, tmp_path
    ):
        """A spool in the exact on-disk format the spool-only daemon
        wrote (spelled out here, not produced by the current code): one
        job running at the crash, one queued, one finished, one still a
        drop file.  The new daemon resumes it."""
        spool = tmp_path / "spool"
        for sub in ("submit", "cancel", "results", "checkpoints"):
            (spool / sub).mkdir(parents=True)
        units = [[os.path.abspath(f) for f in unit.files] for unit in tiny_hg.units]
        cfg = dict(CFG, n_passes=1)

        def spec(job_id, t):
            return {"config": cfg, "job_id": job_id, "max_retries": 2,
                    "submitted_at": t, "timeout_seconds": None, "units": units}

        def line(job_id, type_, state, t, attempt=0, payload=None):
            return json.dumps(
                {"attempt": attempt, "job_id": job_id, "payload": payload or {},
                 "state": state, "time": t, "type": type_},
                sort_keys=True,
            )

        lines = [
            line("j-00000000run1", "submitted", "queued", 1.0,
                 payload={"job": spec("j-00000000run1", 1.0)}),
            line("j-0000000done", "submitted", "queued", 2.0,
                 payload={"job": spec("j-0000000done", 2.0)}),
            line("j-00000000run1", "started", "running", 3.0, 1,
                 {"queue_wait_seconds": 2.0}),
            line("j-0000000done", "started", "running", 4.0, 1,
                 {"queue_wait_seconds": 2.0}),
            line("j-0000000done", "succeeded", "succeeded", 5.0, 1,
                 {"result": {"cache_hit": False}, "metrics": {}}),
            line("j-0000000wait", "submitted", "queued", 6.0,
                 payload={"job": spec("j-0000000wait", 6.0)}),
        ]
        (spool / "events.jsonl").write_text("\n".join(lines) + "\n")
        drop = spec("j-0000000drop", 7.0)
        (spool / "submit" / f"{7.0:017.6f}-j-0000000drop.json").write_text(
            json.dumps(drop, sort_keys=True)
        )

        daemon = ServeDaemon(spool)
        assert daemon.queue.get("j-00000000run1").state == JobState.QUEUED
        assert daemon.queue.get("j-0000000done").state == JobState.SUCCEEDED
        daemon.run_until_idle()
        client = ServiceClient(spool)
        for job_id in ("j-00000000run1", "j-0000000wait", "j-0000000drop"):
            assert client.status(job_id)["state"] == JobState.SUCCEEDED
        assert [e.type for e in events_of(spool, "j-00000000run1")][:4] == [
            "submitted", "started", "recovered", "started"
        ]
        assert len(events_of(spool, "j-0000000done")) == 3  # left alone

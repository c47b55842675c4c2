"""``metaprep serve``: the partition service daemon.

The daemon owns one spool directory and drives the whole service loop:

1. **Ingest** — take submissions and cancels from two places: jobs
   handed over in-process by :meth:`ServeDaemon.submit` and
   :meth:`ServeDaemon.cancel` (the path of ``metaprep gateway``, which
   embeds the daemon; each call returns once the daemon has logged the
   job's event), and job files dropped into ``<spool>/submit/`` and flag
   files in ``<spool>/cancel/`` by
   :class:`repro.service.client.ServiceClient` (the path of ``metaprep
   submit`` against ``metaprep serve``; atomic renames, so a
   half-written submission is never visible).  Only the daemon's thread
   touches the queue either way.
2. **Schedule** — run up to ``max_concurrent`` jobs on long-lived job
   threads, each executing the real pipeline on the PR-1 executor layer
   with per-job checkpointing, bounded retry with exponential backoff,
   and cooperative timeout/cancellation at pass boundaries.
3. **Deduplicate** — before running, consult the content-addressed
   :class:`~repro.service.store.ArtifactStore`: an identical
   (dataset bytes, config) submission returns the cached partition with
   no IndexCreate and no passes executed (a handed-over one is settled
   before :meth:`ServeDaemon.submit` returns, with no job thread); on a
   miss, the IndexCreate product itself is still cached and shared
   across configurations.
4. **Publish** — write ``<spool>/results/<job_id>.json`` with the
   terminal state, per-job metrics (queue wait, cache hit/miss, per-step
   ``TimeBreakdown``), and the partition artifact location.

Kill-safety: all queue state lives in the JSONL event log; a daemon
restarted over the same spool replays the log, demotes orphaned
``running`` jobs back to ``queued``, and the re-run resumes from the
job's per-pass checkpoint instead of starting over.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from pathlib import Path
from typing import Callable, Deque, Dict, Tuple

from repro.core.checkpoint import prune_checkpoints
from repro.core.pipeline import MetaPrep
from repro.service import store as store_mod
from repro.service.jobs import JobRecord, JobState, PartitionJob
from repro.service.queue import JobControl, JobQueue, RetryPolicy, Scheduler
from repro.service.store import ArtifactStore
from repro.util.logging import get_logger

_LOG = get_logger("service.daemon")

SUBMIT_DIR = "submit"
CANCEL_DIR = "cancel"
RESULTS_DIR = "results"
CHECKPOINTS_DIR = "checkpoints"
STORE_DIR = "store"
METRICS_DIR = "metrics"


class ServeDaemon:
    """Filesystem-spool partition service (no network dependency)."""

    def __init__(
        self,
        spool_dir: str | os.PathLike,
        store: ArtifactStore | None = None,
        max_concurrent: int = 2,
        retry: RetryPolicy | None = None,
        executor: str | None = None,
        max_workers: int | None = None,
        worker_addresses: tuple[str, ...] | None = None,
        keep_checkpoints: int = 4,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        self.spool_dir = Path(spool_dir)
        for sub in (SUBMIT_DIR, CANCEL_DIR, RESULTS_DIR, CHECKPOINTS_DIR):
            (self.spool_dir / sub).mkdir(parents=True, exist_ok=True)
        self.store = store or ArtifactStore(self.spool_dir / STORE_DIR)
        self.executor = executor
        self.max_workers = max_workers
        #: distributed-engine worker registry; jobs scheduled by this
        #: daemon run their stages on these remote `metaprep worker`
        #: daemons when the executor override is "distributed"
        self.worker_addresses = worker_addresses
        self.keep_checkpoints = keep_checkpoints
        #: optional callable returning extra counters (name -> value) to
        #: merge into the published metrics snapshot; the gateway hooks
        #: its request counters in here so one scrape target covers both
        self.extra_counters = None
        self.queue = JobQueue(self.spool_dir)
        self._partition_keys: Dict[str, str] = {}  # job_id -> work key
        #: calls handed over by other threads, run by the daemon loop
        self._inbox: Deque[Tuple[Future, Callable, tuple]] = deque()
        #: True while :meth:`serve_forever` runs, so a hand-off can tell
        #: a busy loop from a stopped one
        self._serving = False
        #: the metrics snapshot is rewritten at most once per this many
        #: seconds (the drive loop's poll interval), and when idle
        self._metrics_interval = 0.2
        self._metrics_stale = False
        self._metrics_written = 0.0
        self.scheduler = Scheduler(
            self.queue,
            runner=self._execute,
            max_concurrent=max_concurrent,
            retry=retry,
            clock=clock,
            sleep=sleep,
            on_terminal=self._publish_result,
            coalesce=self._partition_key_of,
        )
        recovered = self.queue.recover()
        if recovered:
            _LOG.info("daemon restart: %d job(s) re-queued", recovered)
        self.write_metrics()

    # ------------------------------------------------------------------
    # in-process hand-off (the gateway's path)
    # ------------------------------------------------------------------
    def submit(self, job: PartitionJob, partition_key: str | None = None) -> None:
        """Queue a job from another thread; returns once its ``submitted``
        event is logged, so a status read after this call finds it.

        ``partition_key`` is the job's :func:`~repro.service.store.partition_key`
        if the caller has already computed it (it does not depend on this
        daemon's executor overrides), which saves hashing the dataset
        again.  A job whose partition the store already holds has
        succeeded when this returns.
        """
        self._on_loop(self._accept, job, partition_key)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job from another thread; returns once a queued job's
        ``cancelled`` event is logged (a running one stops at its next
        pass boundary).  False if the job is unknown or already over."""
        return self._on_loop(self._cancel, job_id)

    def _on_loop(self, fn: Callable, *args):
        """Run ``fn(*args)`` on the daemon loop's thread; its result or
        its exception is the caller's."""
        future: Future = Future()
        self._inbox.append((future, fn, args))
        self.scheduler.wake.set()
        while True:
            try:
                return future.result(timeout=1.0)
            except FutureTimeout:
                if future.done():
                    raise
                if not self._serving:
                    raise RuntimeError("the daemon loop is not running") from None

    def _drain_inbox(self) -> bool:
        changed = False
        while self._inbox:
            future, fn, args = self._inbox.popleft()
            try:
                future.set_result(fn(*args))
            except Exception as exc:  # noqa: BLE001 - raised in the caller
                future.set_exception(exc)
            changed = True
        return changed

    def _accept(self, job: PartitionJob, partition_key: str | None) -> None:
        record = self.queue.submit(job)
        if partition_key is not None:
            self._partition_keys[job.job_id] = partition_key
        key = self._partition_key_of(record)
        entry = self.store.get(key) if self.store.has(key) else None
        if entry is not None:
            self.scheduler.run_inline(
                record, lambda record_, _control: self._cache_hit(record_, key, entry)
            )

    def _cancel(self, job_id: str) -> bool:
        return job_id in self.queue.records and self.queue.cancel(job_id)

    # ------------------------------------------------------------------
    # spool protocol (``metaprep submit`` / ``metaprep cancel``)
    # ------------------------------------------------------------------
    def _ingest(self) -> int:
        """Consume ``submit/`` drop files (named so sort order == FIFO)."""
        from repro.service.jobs import PartitionJob

        submit_dir = self.spool_dir / SUBMIT_DIR
        n = 0
        for path in sorted(submit_dir.glob("*.json")):
            try:
                job = PartitionJob.from_dict(json.loads(path.read_text()))
            except (ValueError, KeyError, TypeError) as exc:
                _LOG.warning("rejecting malformed submission %s: %s", path, exc)
                path.rename(path.with_suffix(".rejected"))
                continue
            if job.job_id not in self.queue.records:
                self._accept(job, None)
                n += 1
            path.unlink()
        return n

    def _scan_cancels(self) -> None:
        for flag in (self.spool_dir / CANCEL_DIR).iterdir():
            job_id = flag.name
            if job_id in self.queue.records:
                record = self.queue.get(job_id)
                if not record.terminal:
                    self.queue.cancel(job_id)
                flag.unlink()

    def _publish_result(self, record: JobRecord) -> None:
        """Atomically write the terminal status document for a job."""
        path = self.spool_dir / RESULTS_DIR / f"{record.job_id}.json"
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(record.status_dict(), sort_keys=True, indent=1))
        os.replace(tmp, path)
        self._partition_keys.pop(record.job_id, None)
        if record.state == JobState.SUCCEEDED:
            prune_checkpoints(
                self.spool_dir / CHECKPOINTS_DIR, keep_latest=self.keep_checkpoints
            )

    # ------------------------------------------------------------------
    # job execution
    # ------------------------------------------------------------------
    def _job_config(self, record: JobRecord):
        overrides = {}
        if self.executor is not None:
            overrides["executor"] = self.executor
        if self.max_workers is not None:
            overrides["max_workers"] = self.max_workers
        if self.worker_addresses is not None:
            overrides["worker_addresses"] = self.worker_addresses
        return record.job.pipeline_config(**overrides)

    def _partition_key_of(self, record: JobRecord) -> str:
        """Work identity of a job (cached: hashing the dataset is not free).
        The scheduler coalesces on it so identical in-flight submissions
        run once and the rest hit the cache."""
        key = self._partition_keys.get(record.job_id)
        if key is None:
            key = store_mod.partition_key(
                record.job.pipeline_units(), self._job_config(record)
            )
            self._partition_keys[record.job_id] = key
        return key

    def _execute(self, record: JobRecord, control: JobControl) -> Dict:
        """The scheduler's runner: one attempt of one job, on this thread."""
        job = record.job
        cfg = self._job_config(record)
        units = job.pipeline_units()
        key = self._partition_key_of(record)

        entry = self.store.get(key)
        if entry is not None:
            return self._cache_hit(record, key, entry)
        record.metrics.update(partition_cache="miss", artifact_key=key)

        def sink(event: Dict) -> None:
            control.check()  # cooperative cancel/timeout at pass boundaries
            etype = event.pop("type")
            if etype in ("index_ready", "pass_complete", "run_complete"):
                self.queue.progress(record, etype, **event)
            if etype == "index_ready":
                record.metrics["index_cache"] = {
                    True: "hit", False: "miss", None: "prebuilt"
                }[event.get("cache_hit")]

        t0 = time.perf_counter()
        result = MetaPrep(cfg).run(
            units,
            checkpoint_dir=self.spool_dir / CHECKPOINTS_DIR / job.job_id,
            artifact_store=self.store,
            events=sink,
        )
        run_seconds = time.perf_counter() - t0

        summary = result.partition.summary
        meta = {
            "n_reads": int(summary.n_reads),
            "n_components": int(summary.n_components),
            "largest_component_size": int(summary.largest_component_size),
            "largest_component_fraction": float(
                summary.largest_component_fraction
            ),
            "n_passes": int(result.n_passes),
        }
        entry = self.store.put_partition(key, result.partition.labels, meta)
        record.metrics.update(
            run_seconds=run_seconds,
            measured_seconds=result.measured.as_dict(),
            total_tuples=int(result.total_tuples),
        )
        return dict(
            meta,
            artifact_key=key,
            artifact_path=str(entry.file("partition.bin")),
            cache_hit=False,
        )

    def _cache_hit(self, record: JobRecord, key: str, entry) -> Dict:
        record.metrics.update(partition_cache="hit", artifact_key=key)
        self.queue.progress(record, "cache_hit", artifact_key=key)
        return dict(
            entry.meta,
            artifact_key=key,
            artifact_path=str(entry.file("partition.bin")),
            cache_hit=True,
        )

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def metrics(self) -> Dict:
        """Live service metrics: job states, queue depth, store counters."""
        return {
            "jobs_by_state": self.queue.counts(),
            "queue_depth": len(self.queue.pending()),
            "running": len(self.scheduler.running),
            "store": self.store.stats.as_dict(),
        }

    def write_metrics(self) -> Path:
        """Publish the metrics snapshot under ``<spool>/metrics/``.

        Two formats from one snapshot: ``metrics.json`` for programmatic
        consumers and ``metaprep.prom`` for a Prometheus node-exporter
        textfile collector.  Both writes are atomic, so a scraper never
        sees a torn file.
        """
        from repro.telemetry.exporters import (
            METRICS_FILENAME,
            PROM_FILENAME,
            write_prometheus_textfile,
        )

        doc = self.metrics()
        directory = self.spool_dir / METRICS_DIR
        directory.mkdir(parents=True, exist_ok=True)
        counters = {
            f"store.{name}": value for name, value in doc["store"].items()
        }
        if self.extra_counters is not None:
            extra = dict(self.extra_counters())
            counters.update(extra)
            doc["extra"] = extra
        gauges = {
            "service.queue_depth": doc["queue_depth"],
            "service.running_jobs": doc["running"],
        }
        for state, n in doc["jobs_by_state"].items():
            gauges[f"service.jobs_{state}"] = n
        write_prometheus_textfile(directory / PROM_FILENAME, counters, gauges)
        path = directory / METRICS_FILENAME
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(doc, sort_keys=True, indent=1))
        os.replace(tmp, path)
        self._metrics_stale = False
        self._metrics_written = time.monotonic()
        return path

    def _flush_metrics(self) -> None:
        if self._metrics_stale:
            self.write_metrics()

    # ------------------------------------------------------------------
    # drive loops
    # ------------------------------------------------------------------
    def tick(self) -> bool:
        """One service round: take hand-offs, ingest, apply cancels,
        schedule.  Returns True if anything changed."""
        changed = self._drain_inbox()
        changed = self._ingest() > 0 or changed
        self._scan_cancels()
        changed = self.scheduler.tick() or changed
        self._metrics_stale = self._metrics_stale or changed
        if time.monotonic() - self._metrics_written >= self._metrics_interval:
            self._flush_metrics()
        return changed

    def idle(self) -> bool:
        return (
            not self._inbox
            and not self.scheduler.running
            and not self.queue.pending()
            and not any((self.spool_dir / SUBMIT_DIR).glob("*.json"))
        )

    def run_until_idle(
        self, poll_seconds: float = 0.02, timeout: float | None = 120.0
    ) -> None:
        """Drain everything currently submitted (used by tests and
        ``metaprep serve --once``)."""
        self._metrics_interval = poll_seconds
        start = time.monotonic()
        while True:
            self.tick()
            if self.idle():
                self._flush_metrics()
                self.scheduler.close()
                return
            if timeout is not None and time.monotonic() - start > timeout:
                raise TimeoutError(
                    f"daemon not idle after {timeout}s; "
                    f"running={self.scheduler.running}"
                )
            time.sleep(poll_seconds)

    def serve_forever(
        self,
        poll_seconds: float = 0.2,
        stop_event: threading.Event | None = None,
    ) -> None:
        """Tick until ``stop_event`` is set.  A hand-off or a finished job
        wakes the loop at once; ``poll_seconds`` bounds only how late a
        spool drop is picked up and how often the metrics snapshot is
        rewritten."""
        _LOG.info("metaprep serve: watching %s", self.spool_dir)
        self._metrics_interval = poll_seconds
        wake = self.scheduler.wake
        self._serving = True
        try:
            while stop_event is None or not stop_event.is_set():
                wake.clear()
                if not self.tick() and not wake.wait(poll_seconds):
                    self._flush_metrics()  # a quiet interval: publish
        finally:
            self._serving = False
            while self._inbox:  # no caller waits forever on a stopped loop
                future, _, _ = self._inbox.popleft()
                future.set_exception(RuntimeError("the daemon loop stopped"))

    # ------------------------------------------------------------------
    # embedded mode (the gateway runs the daemon on a side thread)
    # ------------------------------------------------------------------
    def start_background(self, poll_seconds: float = 0.05) -> None:
        """Run :meth:`serve_forever` on a daemon thread until
        :meth:`stop_background`.  Used by ``metaprep gateway`` (and the
        gateway tests) to co-locate the scheduler with the HTTP front
        end, which hands it jobs through :meth:`submit`."""
        if getattr(self, "_bg_thread", None) is not None:
            raise RuntimeError("daemon already running in background")
        self._bg_stop = threading.Event()
        self._bg_thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_seconds": poll_seconds, "stop_event": self._bg_stop},
            name="serve-daemon",
            daemon=True,
        )
        self._serving = True  # hand-offs made before the thread runs wait
        self._bg_thread.start()

    def stop_background(self, timeout: float = 30.0) -> None:
        """Stop the background loop and the job threads and join them; a
        running job is left to finish first (within ``timeout``)."""
        thread = getattr(self, "_bg_thread", None)
        if thread is None:
            return
        self._bg_stop.set()
        self.scheduler.wake.set()
        thread.join(timeout)
        self._bg_thread = None
        self.scheduler.close(timeout)
        self._flush_metrics()

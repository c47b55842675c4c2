"""The partition job service: a long-running layer above the pipeline.

The paper's METAPREP is a batch program — one dataset in, one partition
out.  This package turns it into a service: many users submit
:class:`~repro.service.jobs.PartitionJob` requests, a daemon executes
them on the PR-1 executor layer, and a content-addressed artifact store
deduplicates the expensive immutable products (IndexCreate tables,
finished partitions) across submissions.

Modules
-------

* :mod:`repro.service.store` — content-addressed artifact store with
  atomic publication and LRU/size-budget eviction.
* :mod:`repro.service.jobs` — job specs, the job state machine, and the
  JSONL event records that persist it.
* :mod:`repro.service.queue` — the durable job queue (event-sourced) and
  the concurrent scheduler with retry/backoff.
* :mod:`repro.service.daemon` — ``metaprep serve``: spool ingestion,
  job execution with caching/checkpointing, result publication.
* :mod:`repro.service.client` — the filesystem-spool client behind the
  ``submit``/``status``/``result``/``cancel`` CLI verbs.

The transport is a filesystem spool directory (atomic renames, JSONL
event log) rather than a network socket, so the whole service is
dependency-free and the daemon can be killed and restarted at any point
without losing queue state.
"""

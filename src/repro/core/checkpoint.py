"""Checkpoint/restart for multipass runs.

METAPREP's multipass structure makes mid-run recovery natural: after each
pass, the complete mutable state is the per-task component arrays plus
the pass counter (the index tables are immutable inputs).  A checkpoint
records exactly that, keyed by a fingerprint of everything that must not
change between save and resume (configuration, index identity, dataset
size).  On restart the pipeline fast-forwards past completed passes.

For a 14-minute 16-node run this is a convenience; for the multi-hour
sequential IndexCreate + multipass runs the paper contemplates on larger
inputs, it is the difference between losing a node and losing a day.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List

import numpy as np

from repro.core.config import PipelineConfig
from repro.seqio.tables import read_table, write_table
from repro.util.logging import get_logger

_LOG = get_logger("core.checkpoint")
_SCHEMA = "metaprep/checkpoint"


def payload_fingerprint(payload: dict) -> str:
    """Stable 32-hex-digit digest of a JSON-serializable payload.

    The common fingerprint primitive: checkpoints key resumability on it
    and the artifact store (:mod:`repro.service.store`) keys cached
    IndexCreate/partition products on it.  Stability rests on
    ``json.dumps(sort_keys=True)`` canonicalization.
    """
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


#: ``PipelineConfig`` fields that provably cannot change the partition
#: result, and are therefore deliberately absent from
#: :func:`config_payload`.  Every config field must appear either here or
#: as a payload key, never both —
#: ``tests/analysis/test_repo_invariants.py::test_every_field_classified``
#: asserts the split on the live objects.  Rationale per field:
#:
#: * ``executor`` / ``max_workers`` — both engines are bit-identical by
#:   the differential contract of :mod:`repro.runtime.executor`;
#: * ``write_outputs`` — toggles emission of the partitioned FASTQ files,
#:   not the labels the artifact store caches;
#: * ``machine`` — only feeds the timing projection;
#: * ``n_passes`` / ``memory_budget_per_task`` / ``n_chunks`` — the
#:   pass/chunk decomposition; the merge step makes labels independent of
#:   how work was split (verified by the pass-count invariance tests);
#: * ``telemetry`` / ``telemetry_dir`` — observability only: spans and
#:   counters record what the run did, never feed back into it (and the
#:   telemetry package is wall-clock-free by the MP2xx determinism lint).
#: * ``spill`` / ``spill_dir`` — out-of-core mode moves tuple bytes to
#:   disk between stage barriers but carries identical bytes through
#:   identical stage code; spill and in-memory runs are bit-identical by
#:   the differential contract of ``tests/integration/test_out_of_core``.
#: * ``worker_addresses`` — the distributed engine's host registry:
#:   placement of jobs and exchange blocks across workers, never their
#:   content; all engines are bit-identical by the differential contract
#:   of ``tests/integration/test_distributed_equivalence``.
PARTITION_IRRELEVANT_FIELDS = frozenset(
    {
        "executor",
        "max_workers",
        "worker_addresses",
        "write_outputs",
        "machine",
        "n_passes",
        "memory_budget_per_task",
        "n_chunks",
        "telemetry",
        "telemetry_dir",
        "spill",
        "spill_dir",
    }
)


def config_payload(config: PipelineConfig) -> dict:
    """The configuration fields that determine a run's output partition.

    Excludes the :data:`PARTITION_IRRELEVANT_FIELDS` — knobs that only
    change *how* the answer is computed (executor, worker count, output
    writing) — results are bit-identical across those by the executor
    determinism contract.
    """
    return {
        "k": config.k,
        "m": config.m,
        "n_tasks": config.n_tasks,
        "n_threads": config.n_threads,
        "kmer_filter": (config.kmer_filter.min_freq, config.kmer_filter.max_freq),
        "localcc_opt": config.localcc_opt,
    }


def config_fingerprint(
    config: PipelineConfig, n_reads: int, total_tuples: int
) -> str:
    """Hash of everything a resumed run must match exactly."""
    payload = dict(
        config_payload(config), n_reads=n_reads, total_tuples=total_tuples
    )
    return payload_fingerprint(payload)


class CheckpointMismatch(RuntimeError):
    """A checkpoint exists but belongs to a different run configuration."""


@dataclass
class Checkpoint:
    """State after completing ``passes_done`` passes."""

    fingerprint: str
    n_passes_total: int
    passes_done: int
    parents: List[np.ndarray]


class CheckpointStore:
    """Single-file checkpoint persistence under a directory."""

    FILENAME = "metaprep_checkpoint.bin"

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.path = self.directory / self.FILENAME

    def exists(self) -> bool:
        return self.path.exists()

    def save(self, checkpoint: Checkpoint) -> None:
        arrays = {
            f"parent_{p}": parent.astype(np.int64)
            for p, parent in enumerate(checkpoint.parents)
        }
        meta = {
            "fingerprint": checkpoint.fingerprint,
            "n_passes_total": checkpoint.n_passes_total,
            "passes_done": checkpoint.passes_done,
            "n_tasks": len(checkpoint.parents),
        }
        tmp = self.path.with_suffix(".tmp")
        write_table(tmp, _SCHEMA, meta, arrays)
        os.replace(tmp, self.path)  # atomic publish
        _LOG.info(
            "checkpoint saved: pass %d/%d -> %s",
            checkpoint.passes_done,
            checkpoint.n_passes_total,
            self.path,
        )

    def load(self, expect_fingerprint: str, n_passes: int) -> Checkpoint:
        """The checkpoint of this run, planned at ``n_passes`` passes."""
        meta, arrays = read_table(self.path, expect_schema=_SCHEMA)
        if meta["fingerprint"] != expect_fingerprint:
            raise CheckpointMismatch(
                f"{self.path}: checkpoint fingerprint {meta['fingerprint']} "
                f"does not match this run ({expect_fingerprint}); delete the "
                "checkpoint or rerun with the original configuration"
            )
        if int(meta["n_passes_total"]) != n_passes:
            raise CheckpointMismatch(
                f"checkpoint was taken at {meta['n_passes_total']} "
                f"passes; this run plans {n_passes}"
            )
        parents = [
            arrays[f"parent_{p}"] for p in range(int(meta["n_tasks"]))
        ]
        return Checkpoint(
            fingerprint=meta["fingerprint"],
            n_passes_total=int(meta["n_passes_total"]),
            passes_done=int(meta["passes_done"]),
            parents=parents,
        )

    def clear(self) -> None:
        if self.path.exists():
            self.path.unlink()


def prune_checkpoints(root: str | os.PathLike, keep_latest: int = 0) -> List[Path]:
    """Delete stale checkpoints under ``root``, keeping the newest N.

    ``root`` is a directory whose immediate children are per-run
    checkpoint directories (the layout the job service uses:
    ``<service dir>/checkpoints/<job_id>/metaprep_checkpoint.bin``).  A
    checkpoint file directly under ``root`` counts too.  Checkpoints are
    ranked by mtime; all but the ``keep_latest`` newest are removed, and
    a per-run directory emptied by the removal is deleted as well.

    Returns the removed checkpoint paths (newest-last).  Call sites that
    finish a job successfully should invoke this so completed runs do not
    accumulate checkpoint files forever.
    """
    if keep_latest < 0:
        raise ValueError(f"keep_latest must be >= 0, got {keep_latest}")
    root = Path(root)
    if not root.is_dir():
        return []
    found = [
        p
        for p in (
            list(root.glob(CheckpointStore.FILENAME))
            + list(root.glob(f"*/{CheckpointStore.FILENAME}"))
        )
        if p.is_file()
    ]
    found.sort(key=lambda p: (p.stat().st_mtime, str(p)))
    doomed = found[: max(0, len(found) - keep_latest)]
    for path in doomed:
        path.unlink()
        parent = path.parent
        if parent != root and not any(parent.iterdir()):
            parent.rmdir()
    if doomed:
        _LOG.info(
            "pruned %d stale checkpoint(s) under %s (kept %d)",
            len(doomed),
            root,
            keep_latest,
        )
    return doomed

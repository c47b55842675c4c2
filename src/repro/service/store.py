"""Content-addressed artifact store for reusable pipeline products.

IndexCreate output is exactly the kind of artifact the extreme-scale
assembly literature treats as a cacheable preprocessing product: it is
expensive, immutable, and a pure function of (dataset bytes, k, m,
chunking).  Finished partitions are the same one level up — a pure
function of (dataset bytes, partition-relevant configuration).  The
store keys both on fingerprints built from the same
:func:`repro.core.checkpoint.payload_fingerprint` machinery the
checkpoint subsystem uses, so repeated submissions of the same
dataset/config hit the cache instead of recomputing.

Store layout (one directory per key)::

    <root>/<key>/manifest.json      # kind, meta, file names+sizes, created
    <root>/<key>/<payload files>    # e.g. merhist.bin, fastqpart.bin
    <root>/<key>/.last_access       # LRU clock (text float), touched on get

Entries are published atomically: payloads are staged in a scratch
directory under ``<root>/.tmp`` and ``os.replace``d into place, so a
concurrent reader never observes a half-written entry and a crashed
writer leaves only garbage in ``.tmp`` (cleaned opportunistically).

Eviction is LRU under an optional byte budget: whenever a put pushes the
total payload size past ``size_budget_bytes``, least-recently-accessed
entries are deleted until the store fits.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.core.checkpoint import config_payload, payload_fingerprint
from repro.core.config import PipelineConfig
from repro.index.create import IndexCreateResult
from repro.index.fastqpart import FastqPartTable
from repro.index.merhist import MerHist
from repro.seqio.tables import read_table, write_table
from repro.util.logging import get_logger

_LOG = get_logger("service.store")

_MANIFEST = "manifest.json"
_ATIME = ".last_access"
PARTITION_SCHEMA = "metaprep/partition-artifact"

#: artifact kinds the typed helpers produce
KIND_INDEX = "index"
KIND_PARTITION = "partition"


class ArtifactStoreError(RuntimeError):
    """A store entry is missing, corrupt, or of the wrong kind."""


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------


def _unit_files(units: Sequence) -> List[str]:
    """Flatten unit specs (paths, (R1, R2) pairs, or ``FastqUnit``) to an
    ordered file list."""
    from repro.index.fastqpart import FastqUnit

    files: List[str] = []
    for spec in units:
        if isinstance(spec, (tuple, list)) and len(spec) == 1:
            spec = spec[0]
        files.extend(FastqUnit.wrap(spec).files)
    return files


def dataset_fingerprint(units: Sequence) -> str:
    """Digest of the dataset *content*: every input file's bytes, in unit
    order.  Renaming or moving files does not change the fingerprint;
    editing one read does."""
    h = hashlib.blake2b(digest_size=16)
    for path in _unit_files(units):
        h.update(b"\x00file\x00")
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def index_key(units: Sequence, config: PipelineConfig) -> str:
    """Cache key of the IndexCreate product for this dataset/config."""
    return payload_fingerprint(
        {
            "kind": KIND_INDEX,
            "dataset": dataset_fingerprint(units),
            "k": config.k,
            "m": config.m,
            "n_chunks": config.resolved_chunks(),
        }
    )


def partition_key(units: Sequence, config: PipelineConfig) -> str:
    """Cache key of the finished partition for this dataset/config.

    Includes every configuration field that determines the output labels
    (via :func:`repro.core.checkpoint.config_payload`) plus the pass/chunk
    decomposition; excludes executor/worker knobs, which are bit-identical
    by the executor determinism contract.
    """
    return payload_fingerprint(
        {
            "kind": KIND_PARTITION,
            "dataset": dataset_fingerprint(units),
            "n_passes": config.n_passes,
            "memory_budget_per_task": config.memory_budget_per_task,
            "n_chunks": config.resolved_chunks(),
            **config_payload(config),
        }
    )


# ----------------------------------------------------------------------
# store
# ----------------------------------------------------------------------


@dataclass
class StoreStats:
    """In-memory cache counters (per store instance, not persisted)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
        }


@dataclass
class ArtifactEntry:
    """A resolved store entry: manifest fields plus payload paths."""

    key: str
    kind: str
    path: Path
    meta: Dict = field(default_factory=dict)
    files: Dict[str, Path] = field(default_factory=dict)
    size_bytes: int = 0
    created: float = 0.0

    def file(self, name: str) -> Path:
        try:
            return self.files[name]
        except KeyError:
            raise ArtifactStoreError(
                f"artifact {self.key} has no payload file {name!r} "
                f"(has {sorted(self.files)})"
            ) from None


class ArtifactStore:
    """Content-addressed, atomically-published, LRU-evicted artifact store."""

    def __init__(
        self,
        root: str | os.PathLike,
        size_budget_bytes: int | None = None,
        clock=time.time,
    ) -> None:
        if size_budget_bytes is not None and size_budget_bytes < 0:
            raise ValueError(
                f"size_budget_bytes must be >= 0, got {size_budget_bytes}"
            )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.size_budget_bytes = size_budget_bytes
        self.stats = StoreStats()
        self._clock = clock
        self._scratch = self.root / ".tmp"

    # ------------------------------------------------------------------
    # primitives
    # ------------------------------------------------------------------
    def _entry_dir(self, key: str) -> Path:
        if not key or "/" in key or key.startswith("."):
            raise ValueError(f"invalid artifact key {key!r}")
        return self.root / key

    def has(self, key: str) -> bool:
        """Entry presence without touching counters or the LRU clock."""
        return (self._entry_dir(key) / _MANIFEST).is_file()

    def keys(self) -> List[str]:
        return sorted(
            p.name
            for p in self.root.iterdir()
            if p.is_dir() and not p.name.startswith(".") and (p / _MANIFEST).is_file()
        )

    def _read_entry(self, key: str) -> ArtifactEntry:
        path = self._entry_dir(key)
        try:
            manifest = json.loads((path / _MANIFEST).read_text())
        except FileNotFoundError:
            raise ArtifactStoreError(f"no artifact for key {key}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ArtifactStoreError(f"corrupt manifest for {key}: {exc}") from exc
        return ArtifactEntry(
            key=key,
            kind=manifest["kind"],
            path=path,
            meta=manifest.get("meta", {}),
            files={name: path / name for name in manifest.get("files", {})},
            size_bytes=int(manifest.get("size_bytes", 0)),
            created=float(manifest.get("created", 0.0)),
        )

    def get(self, key: str) -> ArtifactEntry | None:
        """Look up ``key``; counts a hit/miss and refreshes the LRU clock."""
        if not self.has(key):
            self.stats.misses += 1
            telemetry.add_counter("store.misses")
            return None
        entry = self._read_entry(key)
        self._touch(key)
        self.stats.hits += 1
        telemetry.add_counter("store.hits")
        return entry

    def _touch(self, key: str) -> None:
        try:
            (self._entry_dir(key) / _ATIME).write_text(repr(float(self._clock())))
        except OSError:  # pragma: no cover - entry evicted concurrently
            pass

    def _last_access(self, key: str) -> float:
        try:
            return float((self._entry_dir(key) / _ATIME).read_text())
        except (OSError, ValueError):
            return 0.0

    def put(
        self,
        key: str,
        kind: str,
        writers: Dict[str, Callable[[Path], object]],
        meta: Dict | None = None,
    ) -> ArtifactEntry:
        """Publish an entry atomically.

        ``writers`` maps payload file name -> ``callable(path)`` that
        materializes the file.  Everything is staged under
        ``<root>/.tmp`` and renamed into place in one ``os.replace``; a
        concurrent put of the same key is resolved by whoever renames
        first (the loser's staging dir is discarded — content-addressing
        makes both copies identical anyway).
        """
        dest = self._entry_dir(key)
        self._scratch.mkdir(exist_ok=True)
        stage = self._scratch / f"{key}.{os.getpid()}.{uuid.uuid4().hex[:8]}"
        stage.mkdir()
        try:
            sizes: Dict[str, int] = {}
            for name, writer in writers.items():
                writer(stage / name)
                sizes[name] = (stage / name).stat().st_size
            manifest = {
                "kind": kind,
                "key": key,
                "meta": meta or {},
                "files": sizes,
                "size_bytes": sum(sizes.values()),
                "created": float(self._clock()),
            }
            (stage / _MANIFEST).write_text(json.dumps(manifest, sort_keys=True))
            (stage / _ATIME).write_text(repr(float(self._clock())))
            try:
                os.replace(stage, dest)
            except OSError:
                if not self.has(key):  # a real failure, not a lost race
                    raise
                shutil.rmtree(stage, ignore_errors=True)
        except BaseException:
            shutil.rmtree(stage, ignore_errors=True)
            raise
        self.stats.puts += 1
        _LOG.info("stored %s artifact %s (%d bytes)", kind, key,
                  sum(sizes.values()))
        if self.size_budget_bytes is not None:
            self.evict(self.size_budget_bytes)
        return self._read_entry(key)

    def delete(self, key: str) -> bool:
        path = self._entry_dir(key)
        if not path.exists():
            return False
        shutil.rmtree(path)
        return True

    def total_bytes(self) -> int:
        return sum(self._read_entry(k).size_bytes for k in self.keys())

    def evict(self, budget_bytes: int | None = None) -> List[str]:
        """Delete least-recently-accessed entries until the store fits
        ``budget_bytes`` (default: the configured budget).  Returns the
        evicted keys, oldest first."""
        budget = (
            budget_bytes if budget_bytes is not None else self.size_budget_bytes
        )
        if budget is None:
            return []
        entries = [
            (self._last_access(k), self._read_entry(k)) for k in self.keys()
        ]
        entries.sort(key=lambda pair: (pair[0], pair[1].key))
        total = sum(e.size_bytes for _, e in entries)
        evicted: List[str] = []
        for _, entry in entries:
            if total <= budget:
                break
            shutil.rmtree(entry.path, ignore_errors=True)
            total -= entry.size_bytes
            evicted.append(entry.key)
            self.stats.evictions += 1
        if evicted:
            _LOG.info("evicted %d artifact(s): %s", len(evicted), evicted)
        self._clean_scratch()
        return evicted

    def _clean_scratch(self) -> None:
        if self._scratch.is_dir():
            for leftover in self._scratch.iterdir():
                shutil.rmtree(leftover, ignore_errors=True)

    # ------------------------------------------------------------------
    # typed helpers: IndexCreate artifacts
    # ------------------------------------------------------------------
    def put_index(self, key: str, index: IndexCreateResult) -> ArtifactEntry:
        """Cache both IndexCreate tables under ``key``."""
        return self.put(
            key,
            KIND_INDEX,
            {
                "merhist.bin": lambda p: index.merhist.save(p),
                "fastqpart.bin": lambda p: index.fastqpart.save(p),
            },
            meta={
                "k": index.merhist.k,
                "m": index.merhist.m,
                "n_chunks": index.fastqpart.n_chunks,
                "total_reads": index.fastqpart.total_reads,
                "fastqpart_seconds": index.fastqpart_seconds,
                "merhist_seconds": index.merhist_seconds,
            },
        )

    def load_index(self, entry: ArtifactEntry) -> IndexCreateResult:
        if entry.kind != KIND_INDEX:
            raise ArtifactStoreError(
                f"artifact {entry.key} is a {entry.kind!r}, expected index"
            )
        return IndexCreateResult(
            merhist=MerHist.load(entry.file("merhist.bin")),
            fastqpart=FastqPartTable.load(entry.file("fastqpart.bin")),
            fastqpart_seconds=float(entry.meta.get("fastqpart_seconds", 0.0)),
            merhist_seconds=float(entry.meta.get("merhist_seconds", 0.0)),
            merhist_path=str(entry.file("merhist.bin")),
            fastqpart_path=str(entry.file("fastqpart.bin")),
        )

    def index_for(
        self, units: Sequence, config: PipelineConfig
    ) -> Tuple[IndexCreateResult, bool]:
        """Cached IndexCreate product, computing and caching on miss.

        Returns ``(index, cache_hit)``.  This is the pipeline's injection
        point: :meth:`repro.core.pipeline.MetaPrep.run` calls it instead
        of :func:`repro.index.create.index_create` when a store is given.
        """
        key = index_key(units, config)
        entry = self.get(key)
        if entry is not None:
            return self.load_index(entry), True
        from repro.index.create import index_create

        index = index_create(units, config.k, config.m, config.resolved_chunks())
        self.put_index(key, index)
        return index, False

    # ------------------------------------------------------------------
    # typed helpers: partition artifacts
    # ------------------------------------------------------------------
    def put_partition(
        self, key: str, labels: np.ndarray, summary_meta: Dict
    ) -> ArtifactEntry:
        """Cache a finished partition: the global label array + summary."""

        def _write(path: Path) -> None:
            write_table(
                path,
                PARTITION_SCHEMA,
                {"n_reads": int(len(labels))},
                {"labels": np.asarray(labels, dtype=np.int64)},
            )

        return self.put(
            key, KIND_PARTITION, {"partition.bin": _write}, meta=summary_meta
        )

    def load_partition(self, entry: ArtifactEntry) -> np.ndarray:
        if entry.kind != KIND_PARTITION:
            raise ArtifactStoreError(
                f"artifact {entry.key} is a {entry.kind!r}, expected partition"
            )
        _, arrays = read_table(
            entry.file("partition.bin"), expect_schema=PARTITION_SCHEMA
        )
        return arrays["labels"]

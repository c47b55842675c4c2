"""Content-addressed artifact store: fingerprints, atomic publication,
manifests, LRU eviction, and the typed index/partition helpers."""

import json
import shutil

import numpy as np
import pytest

from repro.core.config import PipelineConfig
from repro.index.create import index_create
from repro.service.store import (
    ArtifactStore,
    ArtifactStoreError,
    KIND_INDEX,
    KIND_PARTITION,
    dataset_fingerprint,
    index_key,
    partition_key,
)


@pytest.fixture()
def unit(tmp_path):
    path = tmp_path / "reads.fastq"
    path.write_text("@r0\nACGTACGTACGTACGTACGTACGTACGT\n+\n" + "I" * 28 + "\n")
    return str(path)


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


class TestFingerprints:
    def test_dataset_fingerprint_is_content_addressed(self, tmp_path, unit):
        moved = tmp_path / "renamed.fastq"
        shutil.copy(unit, moved)
        assert dataset_fingerprint([unit]) == dataset_fingerprint([str(moved)])

    def test_dataset_fingerprint_sensitive_to_content(self, tmp_path, unit):
        edited = tmp_path / "edited.fastq"
        edited.write_text(
            "@r0\nTCGTACGTACGTACGTACGTACGTACGT\n+\n" + "I" * 28 + "\n"
        )
        assert dataset_fingerprint([unit]) != dataset_fingerprint([str(edited)])

    def test_index_key_ignores_partition_only_knobs(self, unit):
        a = index_key([unit], PipelineConfig(k=21, m=4, n_passes=1))
        b = index_key([unit], PipelineConfig(k=21, m=4, n_passes=3))
        assert a == b
        assert a != index_key([unit], PipelineConfig(k=23, m=4))

    def test_partition_key_tracks_partition_knobs(self, unit):
        base = PipelineConfig(k=21, m=4, n_passes=1)
        assert partition_key([unit], base) != partition_key(
            [unit], PipelineConfig(k=21, m=4, n_passes=3)
        )
        assert partition_key([unit], base) != partition_key(
            [unit], PipelineConfig(k=23, m=4, n_passes=1)
        )

    def test_partition_key_ignores_executor_knobs(self, unit):
        serial = PipelineConfig(k=21, m=4, executor="serial")
        pool = PipelineConfig(k=21, m=4, executor="process", max_workers=3)
        assert partition_key([unit], serial) == partition_key([unit], pool)


class TestStorePrimitives:
    def _put(self, store, key="k1", payload=b"hello", **kw):
        return store.put(
            key,
            "blob",
            {"data.bin": lambda p: p.write_bytes(payload)},
            **kw,
        )

    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        self._put(store, meta={"note": "x"})
        entry = store.get("k1")
        assert entry is not None
        assert entry.kind == "blob"
        assert entry.meta == {"note": "x"}
        assert entry.file("data.bin").read_bytes() == b"hello"
        assert entry.size_bytes == 5
        assert store.stats.as_dict() == {
            "hits": 1, "misses": 0, "puts": 1, "evictions": 0,
        }

    def test_miss_counts_and_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert store.get("nope") is None
        assert store.stats.misses == 1

    def test_manifest_contents(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        self._put(store)
        manifest = json.loads((store.root / "k1" / "manifest.json").read_text())
        assert manifest["kind"] == "blob"
        assert manifest["files"] == {"data.bin": 5}
        assert manifest["size_bytes"] == 5

    def test_failed_writer_publishes_nothing(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")

        def explode(path):
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError, match="disk on fire"):
            store.put("k1", "blob", {"data.bin": explode})
        assert not store.has("k1")
        assert store.keys() == []
        assert not any((store.root / ".tmp").iterdir())

    def test_invalid_keys_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ValueError, match="invalid artifact key"):
                store.has(bad)

    def test_delete(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        self._put(store)
        assert store.delete("k1")
        assert not store.has("k1")
        assert not store.delete("k1")

    def test_missing_payload_file_named_in_error(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        self._put(store)
        with pytest.raises(ArtifactStoreError, match="no payload file"):
            store.get("k1").file("other.bin")


class TestLruEviction:
    def _store(self, tmp_path, budget):
        clock = FakeClock()
        return ArtifactStore(
            tmp_path / "store", size_budget_bytes=budget, clock=clock
        ), clock

    def _put(self, store, key, nbytes=10):
        store.put(key, "blob", {"d": lambda p: p.write_bytes(b"x" * nbytes)})

    def test_least_recently_accessed_goes_first(self, tmp_path):
        store, clock = self._store(tmp_path, budget=25)
        for key in ("a", "b"):
            self._put(store, key)
            clock.advance(10)
        store.get("a")  # refresh a's LRU clock: b is now the oldest
        clock.advance(10)
        self._put(store, "c")  # 30 bytes total > 25: evict down to budget
        assert store.keys() == ["a", "c"]
        assert store.stats.evictions == 1

    def test_no_budget_never_evicts(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        for key in ("a", "b", "c"):
            self._put(store, key)
        assert store.evict() == []
        assert len(store.keys()) == 3

    def test_eviction_keeps_store_under_budget(self, tmp_path):
        store, clock = self._store(tmp_path, budget=15)
        for key in ("a", "b", "c"):
            self._put(store, key)
            clock.advance(1)
        assert store.total_bytes() <= 15
        assert store.keys() == ["c"]


class TestTypedHelpers:
    CFG = PipelineConfig(k=21, m=4, n_chunks=4)

    def test_index_for_miss_then_hit(self, tmp_path, unit):
        store = ArtifactStore(tmp_path / "store")
        index, hit = store.index_for([unit], self.CFG)
        assert not hit
        again, hit = store.index_for([unit], self.CFG)
        assert hit
        assert again.merhist.k == index.merhist.k
        assert np.array_equal(again.merhist.counts, index.merhist.counts)
        assert again.fastqpart.total_reads == index.fastqpart.total_reads

    def test_partition_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        labels = np.array([0, 0, 1, 2, 1], dtype=np.int64)
        entry = store.put_partition("pk", labels, {"n_components": 3})
        assert entry.kind == KIND_PARTITION
        assert entry.meta == {"n_components": 3}
        assert np.array_equal(store.load_partition(entry), labels)

    def test_kind_mismatch_rejected(self, tmp_path, unit):
        store = ArtifactStore(tmp_path / "store")
        index = index_create([unit], k=21, m=4, n_chunks=4)
        store.put_index("ik", index)
        entry = store.get("ik")
        assert entry.kind == KIND_INDEX
        with pytest.raises(ArtifactStoreError, match="expected partition"):
            store.load_partition(entry)
        part = store.put_partition("pk", np.zeros(3, dtype=np.int64), {})
        with pytest.raises(ArtifactStoreError, match="expected index"):
            store.load_index(part)

import hashlib
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cc.dsf import DisjointSetForest
from repro.core.checkpoint import (
    Checkpoint,
    CheckpointMismatch,
    CheckpointStore,
    config_fingerprint,
    prune_checkpoints,
)
import repro.core.pipeline as pipeline_mod
from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.kmers.codec import KmerArray, limb_count
from repro.kmers.engine import KmerTuples
from repro.runtime.buffers import HeapBufferPool, SharedMemoryBufferPool
from repro.runtime.spill import read_spill, write_spill
from tests.cc.reference_dsf import ReferenceForest


class TestStore:
    def _checkpoint(self, fp="abc", done=1, total=3, n=10, tasks=2):
        return Checkpoint(
            fingerprint=fp,
            n_passes_total=total,
            passes_done=done,
            parents=[np.arange(n, dtype=np.int64) for _ in range(tasks)],
        )

    def test_save_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        ckpt = self._checkpoint()
        ckpt.parents[0][3] = 7
        store.save(ckpt)
        back = store.load("abc", 3)
        assert back.passes_done == 1
        assert back.n_passes_total == 3
        assert np.array_equal(back.parents[0], ckpt.parents[0])
        assert len(back.parents) == 2

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(self._checkpoint(fp="abc"))
        with pytest.raises(CheckpointMismatch, match="fingerprint"):
            store.load("xyz", 3)

    def test_clear(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(self._checkpoint())
        assert store.exists()
        store.clear()
        assert not store.exists()
        store.clear()  # idempotent

    def test_overwrite_is_atomic_publish(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(self._checkpoint(done=1))
        store.save(self._checkpoint(done=2))
        assert store.load("abc", 3).passes_done == 2


class TestFingerprint:
    def test_sensitive_to_config(self):
        a = config_fingerprint(PipelineConfig(k=27, m=5), 100, 1000)
        b = config_fingerprint(PipelineConfig(k=31, m=5), 100, 1000)
        assert a != b

    def test_sensitive_to_data(self):
        cfg = PipelineConfig(k=27, m=5)
        assert config_fingerprint(cfg, 100, 1000) != config_fingerprint(
            cfg, 101, 1000
        )

    def test_stable(self):
        cfg = PipelineConfig(k=27, m=5)
        assert config_fingerprint(cfg, 100, 1000) == config_fingerprint(
            cfg, 100, 1000
        )


class TestPipelineResume:
    CFG = dict(k=27, m=5, n_tasks=2, n_threads=2, n_passes=3, write_outputs=False)

    def test_interrupted_run_resumes_to_same_partition(
        self, tiny_hg, tmp_path, monkeypatch
    ):
        reference = MetaPrep(PipelineConfig(**self.CFG)).run(tiny_hg.units)

        # interrupt after two passes by making pass 2 explode
        boom = RuntimeError("injected crash")
        runner = MetaPrep(PipelineConfig(**self.CFG))
        original = pipeline_mod._run_pass
        calls = {"n": 0}

        def exploding(run, spec, plane):
            if spec.index == 2:
                raise boom
            calls["n"] += 1
            return original(run, spec, plane)

        monkeypatch.setattr(pipeline_mod, "_run_pass", exploding)
        with pytest.raises(RuntimeError, match="injected"):
            runner.run(tiny_hg.units, checkpoint_dir=tmp_path)
        assert calls["n"] == 2
        assert CheckpointStore(tmp_path).exists()

        # resume: only the remaining pass runs
        resumed_runner = MetaPrep(PipelineConfig(**self.CFG))
        resumed_calls = []

        def counting(run, spec, plane):
            resumed_calls.append(spec.index)
            return original(run, spec, plane)

        monkeypatch.setattr(pipeline_mod, "_run_pass", counting)
        result = resumed_runner.run(tiny_hg.units, checkpoint_dir=tmp_path)
        assert resumed_calls == [2]
        assert np.array_equal(
            result.partition.labels, reference.partition.labels
        )
        # checkpoint cleared after success
        assert not CheckpointStore(tmp_path).exists()

    def test_clean_run_leaves_no_checkpoint(self, tiny_hg, tmp_path):
        MetaPrep(PipelineConfig(**self.CFG)).run(
            tiny_hg.units, checkpoint_dir=tmp_path
        )
        assert not CheckpointStore(tmp_path).exists()

    def test_config_change_rejected_on_resume(self, tiny_hg, tmp_path, monkeypatch):
        runner = MetaPrep(PipelineConfig(**self.CFG))
        original = pipeline_mod._run_pass

        def exploding(run, spec, plane):
            if spec.index == 1:
                raise RuntimeError("injected")
            return original(run, spec, plane)

        monkeypatch.setattr(pipeline_mod, "_run_pass", exploding)
        with pytest.raises(RuntimeError):
            runner.run(tiny_hg.units, checkpoint_dir=tmp_path)

        changed = dict(self.CFG, k=31)
        with pytest.raises(CheckpointMismatch):
            MetaPrep(PipelineConfig(**changed)).run(
                tiny_hg.units, checkpoint_dir=tmp_path
            )

    def test_pass_count_change_rejected(self, tiny_hg, tmp_path, monkeypatch):
        runner = MetaPrep(PipelineConfig(**self.CFG))
        original = pipeline_mod._run_pass

        def exploding(run, spec, plane):
            if spec.index == 1:
                raise RuntimeError("injected")
            return original(run, spec, plane)

        monkeypatch.setattr(pipeline_mod, "_run_pass", exploding)
        with pytest.raises(RuntimeError):
            runner.run(tiny_hg.units, checkpoint_dir=tmp_path)

        changed = dict(self.CFG, n_passes=5)
        with pytest.raises(CheckpointMismatch, match="passes"):
            MetaPrep(PipelineConfig(**changed)).run(
                tiny_hg.units, checkpoint_dir=tmp_path
            )


class TestExecutorResume:
    """Checkpoints are executor-agnostic: interrupting a 4-pass run after
    any pass, under either engine, and resuming — under the same engine or
    the other one — reproduces the uninterrupted run's partition exactly.
    """

    CFG = dict(
        k=27, m=5, n_tasks=2, n_threads=2, n_passes=4, write_outputs=False
    )

    def _interrupted_runner(self, monkeypatch, executor, crash_pass):
        runner = MetaPrep(PipelineConfig(executor=executor, **self.CFG))
        original = pipeline_mod._run_pass

        def exploding(run, spec, plane):
            if spec.index == crash_pass:
                raise RuntimeError("injected interruption")
            return original(run, spec, plane)

        monkeypatch.setattr(pipeline_mod, "_run_pass", exploding)
        return runner

    @pytest.fixture(scope="class")
    def reference(self, tiny_hg):
        return MetaPrep(PipelineConfig(executor="serial", **self.CFG)).run(
            tiny_hg.units
        )

    @pytest.mark.parametrize("crash_pass", [1, 2, 3])
    @pytest.mark.parametrize(
        "first_engine,resume_engine",
        [
            ("serial", "serial"),
            ("process", "process"),
            ("serial", "process"),
            ("process", "serial"),
        ],
    )
    def test_resume_matches_uninterrupted(
        self,
        tiny_hg,
        tmp_path,
        reference,
        crash_pass,
        first_engine,
        resume_engine,
        monkeypatch,
    ):
        runner = self._interrupted_runner(monkeypatch, first_engine, crash_pass)
        with pytest.raises(RuntimeError, match="injected interruption"):
            runner.run(tiny_hg.units, checkpoint_dir=tmp_path)
        monkeypatch.undo()
        assert CheckpointStore(tmp_path).exists()
        assert CheckpointStore(tmp_path).load(
            config_fingerprint(
                PipelineConfig(**self.CFG),
                reference.n_reads,
                reference.index.merhist.total_tuples,
            ),
            self.CFG["n_passes"],
        ).passes_done == crash_pass

        result = MetaPrep(
            PipelineConfig(executor=resume_engine, **self.CFG)
        ).run(tiny_hg.units, checkpoint_dir=tmp_path)
        assert np.array_equal(
            result.partition.labels, reference.partition.labels
        )
        assert np.array_equal(
            result.partition.parent, reference.partition.parent
        )
        assert not CheckpointStore(tmp_path).exists()


def _hash_dir(directory) -> str:
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class TestAlgorithm1CheckpointResume:
    """A checkpoint whose forests the per-edge Algorithm 1 built (path
    split, not flat) resumes under the vectorised kernel to the
    uninterrupted run's output bytes."""

    # four threads and passes leave task 0's forest path-split, not flat,
    # after pass 1 on this input
    CFG = dict(k=27, m=5, n_tasks=2, n_threads=4, n_passes=4)

    def test_resume_output_bytes_equal(self, tiny_hg, tmp_path):
        reference = MetaPrep(PipelineConfig(**self.CFG)).run(
            tiny_hg.units, output_dir=tmp_path / "ref"
        )

        def algorithm1(forest, us, vs):
            scalar = ReferenceForest(0)
            scalar.parent = forest.parent  # fold in place, like the kernel
            return scalar.process_edges(us, vs)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(DisjointSetForest, "process_edges", algorithm1)
            runner = MetaPrep(PipelineConfig(**self.CFG))
            original = pipeline_mod._run_pass

            def exploding(run, spec, plane):
                if spec.index == 2:
                    raise RuntimeError("injected interruption")
                return original(run, spec, plane)

            m.setattr(pipeline_mod, "_run_pass", exploding)
            with pytest.raises(RuntimeError, match="injected interruption"):
                runner.run(tiny_hg.units, checkpoint_dir=tmp_path / "ckpt")
        fingerprint = config_fingerprint(
            PipelineConfig(**self.CFG),
            reference.n_reads,
            reference.index.merhist.total_tuples,
        )
        parents = (
            CheckpointStore(tmp_path / "ckpt")
            .load(fingerprint, self.CFG["n_passes"])
            .parents
        )
        assert any(not np.array_equal(p[p], p) for p in parents)

        MetaPrep(PipelineConfig(**self.CFG)).run(
            tiny_hg.units,
            output_dir=tmp_path / "resumed",
            checkpoint_dir=tmp_path / "ckpt",
        )
        assert _hash_dir(tmp_path / "resumed") == _hash_dir(tmp_path / "ref")



class TestCheckpointFileFixture:
    """A checkpoint file the driver wrote at commit 128071d — tiny HG, k=27,
    m=5, P=T=2, S=3, stopped after pass 2 — resumes to the uninterrupted
    run's labels, running pass 2 only.  It pins the ``MPREPTAB``
    checkpoint format and the fingerprint the file is keyed on."""

    CFG = dict(k=27, m=5, n_tasks=2, n_threads=2, n_passes=3, write_outputs=False)
    FIXTURE = Path(__file__).parent / "data" / "checkpoint_hg_k27_p2t2_s3_after2.bin"

    def test_resumes_to_uninterrupted_labels(self, tiny_hg, tmp_path):
        reference = MetaPrep(PipelineConfig(**self.CFG)).run(tiny_hg.units)
        shutil.copy(self.FIXTURE, tmp_path / CheckpointStore.FILENAME)
        events = []
        result = MetaPrep(PipelineConfig(**self.CFG)).run(
            tiny_hg.units, checkpoint_dir=tmp_path, events=events.append
        )
        assert [e["pass_index"] for e in events if e["type"] == "pass_start"] == [2]
        assert np.array_equal(result.partition.labels, reference.partition.labels)
        assert np.array_equal(result.partition.parent, reference.partition.parent)
        assert not CheckpointStore(tmp_path).exists()

def _filled_block(pool, k, n, seed=0):
    rng = np.random.default_rng(seed)
    limbs = [
        rng.integers(0, 2**63, size=n, dtype=np.uint64)
        for _ in range(limb_count(k))
    ]
    ids = rng.integers(0, 2**31, size=n, dtype=np.uint32)
    block = pool.allocate(k, n)
    block.write(0, KmerTuples(KmerArray(k, limbs), ids))
    return block


class TestBlockSpill:
    """The block-spill container shares the checkpoint's ``MPREPTAB``
    wire format.  It is backing-agnostic: only the bytes are
    contractual, so every (writer backing, reader backing) pairing must
    round-trip bit-identically."""

    @pytest.mark.parametrize("k", [21, 33])
    @pytest.mark.parametrize("src", ["heap", "shared"])
    @pytest.mark.parametrize("dst", ["heap", "shared"])
    def test_roundtrip_across_backings(self, tmp_path, k, src, dst):
        pools = {
            "heap": HeapBufferPool(),
            "shared": SharedMemoryBufferPool(),
        }
        try:
            block = _filled_block(pools[src], k, 40)
            path = tmp_path / "spill.bin"
            write_spill(path, block)
            back = read_spill(path, pools[dst])
            assert back.capacity == 40
            a, b = block.view(0, 40), back.view(0, 40)
            for x, y in zip(a.columns, b.columns, strict=True):
                assert np.array_equal(x, y)
        finally:
            pools["shared"].close()

    def test_partial_length_spills_live_prefix(self, tmp_path):
        pool = HeapBufferPool()
        block = _filled_block(pool, 21, 40)
        path = tmp_path / "spill.bin"
        write_spill(path, block, length=12)
        back = read_spill(path, pool)
        assert back.capacity == 12
        a, b = block.view(0, 12), back.view(0, 12)
        assert np.array_equal(a.kmers.lo, b.kmers.lo)
        assert np.array_equal(a.read_ids, b.read_ids)

    def test_spill_publish_is_atomic(self, tmp_path):
        block = _filled_block(HeapBufferPool(), 21, 8)
        path = tmp_path / "spill.bin"
        write_spill(path, block)
        assert path.exists()
        assert not path.with_suffix(".tmp").exists()

    def test_empty_block_roundtrip(self, tmp_path):
        pool = HeapBufferPool()
        path = tmp_path / "spill.bin"
        write_spill(path, pool.allocate(21, 0))
        back = read_spill(path, pool)
        assert back.capacity == 0


class TestPruneCheckpoints:
    def _plant(self, root, name, mtime):
        path = root / name / CheckpointStore.FILENAME
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"ckpt")
        os.utime(path, (mtime, mtime))
        return path

    def test_keep_latest_n(self, tmp_path):
        paths = [
            self._plant(tmp_path, f"job{i}", 1000.0 + i) for i in range(4)
        ]
        removed = prune_checkpoints(tmp_path, keep_latest=2)
        assert sorted(removed) == sorted(paths[:2])
        assert not paths[0].exists() and not paths[1].exists()
        assert paths[2].exists() and paths[3].exists()
        # emptied per-job directories are removed with their checkpoints
        assert not paths[0].parent.exists()
        assert paths[2].parent.exists()

    def test_keep_zero_removes_all(self, tmp_path):
        for i in range(3):
            self._plant(tmp_path, f"job{i}", 1000.0 + i)
        prune_checkpoints(tmp_path, keep_latest=0)
        assert list(tmp_path.rglob(CheckpointStore.FILENAME)) == []

    def test_root_level_checkpoint_counts_too(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(
            Checkpoint(
                fingerprint="abc",
                n_passes_total=2,
                passes_done=1,
                parents=[np.arange(4, dtype=np.int64)],
            )
        )
        os.utime(store.path, (2000.0, 2000.0))
        nested = self._plant(tmp_path, "old-job", 1000.0)
        removed = prune_checkpoints(tmp_path, keep_latest=1)
        assert removed == [nested]
        assert store.exists()

    def test_missing_root_is_noop(self, tmp_path):
        assert prune_checkpoints(tmp_path / "nowhere", keep_latest=1) == []

    def test_ignores_unrelated_files(self, tmp_path):
        (tmp_path / "notes.txt").write_text("keep me")
        self._plant(tmp_path, "job0", 1000.0)
        prune_checkpoints(tmp_path, keep_latest=0)
        assert (tmp_path / "notes.txt").exists()

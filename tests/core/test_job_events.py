"""The job-event stream ``MetaPrep.run`` sends its ``events`` sink.

The job service's sink (``service/daemon.py``) records progress from it
and cancels between passes by raising from it, so the event types, their
order and their payload keys are pinned here.
"""

import pytest

import repro.core.pipeline as pipeline_mod
from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep

CFG = dict(k=27, m=5, n_tasks=2, n_threads=2, n_passes=3, write_outputs=False)

KEYS = {
    "index_ready": {"type", "cache_hit", "n_chunks", "n_reads"},
    "pass_start": {"type", "pass_index", "n_passes"},
    "pass_complete": {"type", "pass_index", "n_passes"},
    "run_complete": {"type", "n_components", "n_reads"},
}


def _stream(events):
    return [(e["type"], e.get("pass_index")) for e in events]


def _passes(*indices):
    return [
        (etype, s) for s in indices for etype in ("pass_start", "pass_complete")
    ]


def test_fresh_run_emits_every_pass(tiny_hg):
    events = []
    result = MetaPrep(PipelineConfig(**CFG)).run(tiny_hg.units, events=events.append)
    assert _stream(events) == [
        ("index_ready", None),
        *_passes(0, 1, 2),
        ("run_complete", None),
    ]
    for event in events:
        assert set(event) == KEYS[event["type"]]
    first, last = events[0], events[-1]
    assert first["cache_hit"] is None
    assert first["n_chunks"] == result.index.fastqpart.n_chunks
    assert first["n_reads"] == last["n_reads"] == result.n_reads
    assert last["n_components"] == result.partition.summary.n_components
    assert {e["n_passes"] for e in events if "n_passes" in e} == {3}


def test_resumed_run_emits_remaining_pass_only(tiny_hg, tmp_path, monkeypatch):
    original = pipeline_mod._run_pass

    def stop_at_pass_2(run, spec, plane):
        if spec.index == 2:
            raise RuntimeError("injected interruption")
        return original(run, spec, plane)

    interrupted = []
    with monkeypatch.context() as m:
        m.setattr(pipeline_mod, "_run_pass", stop_at_pass_2)
        with pytest.raises(RuntimeError, match="injected interruption"):
            MetaPrep(PipelineConfig(**CFG)).run(
                tiny_hg.units, checkpoint_dir=tmp_path, events=interrupted.append
            )
    assert _stream(interrupted) == [
        ("index_ready", None),
        *_passes(0, 1),
        ("pass_start", 2),
    ]

    resumed = []
    MetaPrep(PipelineConfig(**CFG)).run(
        tiny_hg.units, checkpoint_dir=tmp_path, events=resumed.append
    )
    assert _stream(resumed) == [
        ("index_ready", None),
        *_passes(2),
        ("run_complete", None),
    ]
    for event in resumed:
        assert set(event) == KEYS[event["type"]]

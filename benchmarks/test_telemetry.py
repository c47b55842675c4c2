"""Telemetry overhead benchmark: instrumented pipeline vs dark probes.

The subsystem's overhead contract has two halves.  Enabled, collection
must stay cheap enough to leave on for real runs (in-memory tuple
appends that ride home with each job's result, no locks, no files).  Disabled — the default — every probe site reduces
to one ``enabled()`` predicate, and that residue must cost under 2% of
pipeline wall-clock.

Both halves are measured on the real pipeline over the IS analogue
(set ``METAPREP_BENCH_TELEMETRY_DATASET=HG`` for the CI smoke variant)
and recorded to ``BENCH_telemetry.json`` at the repo root:

- an A/B of full runs, telemetry off vs on (capture + fold + artifacts);
- the dark-probe residue, priced directly: per-call cost of a disabled
  probe times the number of probe emissions an enabled run actually
  performs, as a fraction of the disabled run's wall-clock.

The second number is the honest form of "disabled adds <2%": a run-level
A/B of two identical binaries cannot resolve a sub-1% delta above timer
noise, but (probe count x per-probe cost) / wall-clock can.
"""

import json
import os
import time
from pathlib import Path

import pytest

from benchmarks.reporting import table_lines, write_report
from repro import telemetry
from repro.core.config import PipelineConfig
from repro.core.pipeline import MetaPrep
from repro.datasets.registry import build_dataset

ROUNDS = 3
PROBE_CALLS = 200_000
RESULT_PATH = Path(__file__).parent.parent / "BENCH_telemetry.json"

CFG = dict(k=27, m=6, n_tasks=2, n_threads=2, n_passes=2, write_outputs=False)


def _units(bench_root):
    name = os.environ.get("METAPREP_BENCH_TELEMETRY_DATASET", "IS")
    scale = 0.2 if name == "IS" else 1.0
    ds = build_dataset(
        name, bench_root / f"telemetry-{name.lower()}", seed=11, scale=scale
    )
    return name, ds, ds.units


def _best_run_seconds(units, rounds=ROUNDS, **cfg):
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        result = MetaPrep(PipelineConfig(**CFG, **cfg)).run(units)
        best = min(best, time.perf_counter() - start)
    return best, result


def _disabled_probe_ns():
    """Per-call cost of one dark counter probe (telemetry inactive)."""
    assert not telemetry.enabled()
    add = telemetry.add_counter
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(PROBE_CALLS):
            add("cc.unions", 1)
        best = min(best, time.perf_counter() - start)
    return best / PROBE_CALLS * 1e9


@pytest.mark.benchmark(group="telemetry")
def test_telemetry_overhead(bench_root, benchmark, tmp_path):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    name, ds, units = _units(bench_root)

    t_off, _ = _best_run_seconds(units)
    t_on, instrumented = _best_run_seconds(
        units, telemetry_dir=str(tmp_path / "tele")
    )
    run = instrumented.telemetry
    assert run is not None and run.spans

    # probe emissions as merged: spans are 1:1 with events, counters and
    # gauges aggregate per (name, task).  Hot-loop emission sites are
    # per-chunk, so scale the aggregate count by the chunking factor to
    # bound the raw event count from above.
    chunk_factor = max(1, instrumented.plan.n_passes * CFG["n_threads"])
    n_probes = len(run.spans) + chunk_factor * (sum(
        len(per_task) for per_task in run.counters.values()
    ) + sum(len(per_task) for per_task in run.gauges.values()))
    probe_ns = _disabled_probe_ns()
    disabled_pct = n_probes * probe_ns / 1e9 / t_off * 100.0
    enabled_pct = (t_on / t_off - 1.0) * 100.0

    payload = {
        "dataset": name,
        "n_pairs": ds.n_pairs,
        "config": CFG,
        "rounds": ROUNDS,
        "wall_seconds_disabled": round(t_off, 4),
        "wall_seconds_enabled": round(t_on, 4),
        "enabled_overhead_pct": round(enabled_pct, 2),
        "probe_emissions_per_run": n_probes,
        "disabled_probe_ns": round(probe_ns, 1),
        "disabled_overhead_pct": round(disabled_pct, 4),
        "spans": len(run.spans),
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        ["telemetry off", f"{t_off:.3f}", "-"],
        ["telemetry on", f"{t_on:.3f}", f"{enabled_pct:+.1f}%"],
        [
            "dark probes (priced)",
            f"{n_probes * probe_ns / 1e9:.6f}",
            f"{disabled_pct:+.3f}%",
        ],
    ]
    write_report(
        "telemetry_overhead",
        f"telemetry overhead, {name} ({ds.n_pairs} pairs, "
        f"{n_probes} probe emissions)",
        table_lines(["mode", "seconds", "overhead"], rows),
    )

    # the acceptance bar: the disabled residue is under 2% of wall-clock
    assert disabled_pct < 2.0, (
        f"disabled telemetry probes cost {disabled_pct:.3f}% of wall-clock "
        f"({n_probes} emissions x {probe_ns:.0f} ns)"
    )

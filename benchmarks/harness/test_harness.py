"""Self-test of the harness on ``--quick`` inputs (not a measurement).

Run with ``PYTHONPATH=src python -m pytest benchmarks/harness``.
"""

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.harness import compare, main, service_bench
from benchmarks.harness.workloads import ROOT, SCRATCH_PARENT, WORKLOADS

SEED = 3
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: units whose metrics are exact counts and must repeat for a fixed seed
EXACT_UNITS = {"count", "B"}


@pytest.fixture(scope="module")
def spec():
    return main.load_spec()


@pytest.fixture(scope="module")
def full_doc(tmp_path_factory):
    out = tmp_path_factory.mktemp("harness") / "doc.json"
    assert main.main(["--quick", "--seed", str(SEED), "--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_benchmark_json_declares_exactly_what_runs(spec, full_doc):
    declared = [w["name"] for w in spec["workloads"]]
    assert declared == list(WORKLOADS) == list(full_doc["workloads"])
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert "setup_s" in end_to_end
    for name in declared + sorted(end_to_end | per_layer):
        assert NAME.fullmatch(name), name
    for row in full_doc["workloads"].values():
        assert set(row["end_to_end"]) == end_to_end
        assert set(row["per_layer"]) == per_layer
        for entry in row["end_to_end"].values():
            assert entry["value"] > 0 and entry["n"] == len(entry["samples"])


def test_every_layer_metric_is_measured_somewhere(spec, full_doc):
    rows = full_doc["workloads"].values()
    silent = [m["name"] for m in spec["per_layer"]
              if all(row["per_layer"][m["name"]]["value"] == 0 for row in rows)
              and m["name"] != "gateway.unknown_job_polls"]
    assert not silent


def test_every_verification_passes(full_doc):
    for name, row in full_doc["workloads"].items():
        assert row["correct"] and row["failed"] == 0, name
        assert row["attempted"] >= 1


def test_unattributed_closes_the_wall_by_construction(full_doc):
    layer = {k: v["value"] for k, v in
             full_doc["workloads"]["mm_k27_s2_serial"]["per_layer"].items()}
    parts = (layer["cli.import_s"] + layer["index.create_s"] + layer["core.run_s"]
             + layer["core.unattributed_s"])
    assert parts == pytest.approx(layer["cli.wall_s"])


def test_counts_repeat_exactly_for_one_seed(spec, full_doc):
    again = main.contract_result(
        spec, main.run_workload("mm_k27_s2_serial", SEED, traced=True, quick=True), True)
    first = full_doc["workloads"]["mm_k27_s2_serial"]["per_layer"]
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    assert {"kmers.tuples", "cc.edges", "cc.unions", "sort.passes_run"} <= set(exact)
    for name in exact:
        assert again["metrics"][name]["value"] == first[name]["value"], name
    assert set(again) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(entry) == {"value", "unit"} for entry in again["metrics"].values())


def test_warm_job_order_follows_the_seed():
    assert service_bench.warm_plans(1, 40) == service_bench.warm_plans(1, 40)
    assert service_bench.warm_plans(1, 40) != service_bench.warm_plans(2, 40)
    assert service_bench.cold_plans(1, 0) != service_bench.cold_plans(2, 0)


def test_compare_passes_a_file_against_itself_and_fails_a_doctored_one(spec, full_doc):
    lines, bad = compare.compare(spec, full_doc, full_doc)
    assert not bad and not any("REGRESSION" in line for line in lines)

    slower = copy.deepcopy(full_doc)
    entry = slower["workloads"]["ll_k63_s1_serial"]["end_to_end"]["wall_s"]
    entry["value"] *= 1.5
    entry["samples"] = [v * 1.5 for v in entry["samples"]]
    lines, bad = compare.compare(spec, full_doc, slower)
    assert bad and sum("REGRESSION" in line for line in lines) == 1

    failing = copy.deepcopy(full_doc)
    failing["workloads"]["svc_gateway_warm"]["failed"] = 1
    assert compare.compare(spec, full_doc, failing)[1]

    noisy = copy.deepcopy(slower)
    entry = noisy["workloads"]["ll_k63_s1_serial"]["end_to_end"]["wall_s"]
    entry["samples"] = [entry["value"] * f for f in (0.5, 1.0, 1.5)]
    lines, bad = compare.compare(spec, full_doc, noisy)
    assert not bad
    assert [line.split()[-1] for line in lines
            if line.startswith("ll_k63_s1_serial") and " wall_s " in line] == ["unresolved"]


def test_nothing_is_left_behind(full_doc):
    assert not SCRATCH_PARENT.exists()


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the harness the
    command must fail fast, not report numbers."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks" / "harness", tmp_path / "benchmarks" / "harness",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/harness/__main__.py", "--workload",
         "mm_k27_s2_serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and not done.stdout.strip()

"""Command line of the harness.

Two shapes of one measurement:

* ``--workload W --seed N --seconds S --trace 0|1`` — the ``BENCHMARK.json``
  contract: one workload, either its end-to-end metrics (tracing off) or
  its per-layer metrics (traced pass); last stdout line is
  ``{"correct", "attempted", "failed", "metrics"}``.
* no ``--workload`` — every workload, tracing off then traced, one JSON
  document (also ``--out FILE``) that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from statistics import median

import numpy

from benchmarks.harness import pipeline_bench, service_bench, trace
from benchmarks.harness.workloads import ROOT, WORKLOADS, Context

SCHEMA = "metaprep-harness/1"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float = 10.0, traced: bool = False,
                 reps: int | None = None, quick: bool = False,
                 recorders: list | None = None) -> dict:
    """Set up, measure, verify and tear down one workload.  Returns
    ``attempted``/``failed`` and ``samples`` (metric name -> list; the
    reported value is the median)."""
    wl = WORKLOADS[name]
    bench = service_bench if wl.service else pipeline_bench
    if quick:
        reps = reps or 1
    with Context(wl, seed, quick) as ctx:
        state = None
        try:
            t0 = time.perf_counter()
            state = bench.setup(ctx)
            setup_s = time.perf_counter() - t0
            if traced:
                rec = trace.Recorder(name)
                if recorders is not None:
                    recorders.append(rec)
                samples = {k: [v] for k, v in bench.per_layer(ctx, state, rec).items()}
            else:
                samples = bench.end_to_end(ctx, state, seconds, reps)
                samples["setup_s"] = [setup_s]
        finally:
            if state is not None:
                bench.teardown(ctx, state)
        ctx.assert_no_residue()
        return {"attempted": ctx.attempted, "failed": ctx.failed, "samples": samples}


def contract_result(spec: dict, outcome: dict, traced: bool) -> dict:
    """The result object the BENCHMARK.json contract asks for.  A layer the
    workload does not exercise reports 0: it did no work on that path."""
    declared = spec["per_layer" if traced else "end_to_end"]
    samples = outcome["samples"]
    unknown = set(samples) - {d["name"] for d in declared}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if not traced:
        missing = [d["name"] for d in declared if not samples.get(d["name"])]
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            d["name"]: {"value": median(samples.get(d["name"]) or [0.0]), "unit": d["unit"]}
            for d in declared
        },
    }


def host_block() -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def full_run(spec: dict, args, recorders: list) -> dict:
    doc = {"schema": SCHEMA, "seed": args.seed, "quick": args.quick,
           "host": host_block(), "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        print(f"== {name}", file=sys.stderr, flush=True)
        plain = run_workload(name, args.seed, args.seconds, False, args.reps, args.quick)
        traced = run_workload(name, args.seed, args.seconds, True, args.reps,
                              args.quick, recorders)
        end_to_end = contract_result(spec, plain, False)["metrics"]
        for metric, entry in end_to_end.items():
            values = plain["samples"][metric]
            entry.update(n=len(values), min=min(values), max=max(values), samples=values)
        failed = plain["failed"] + traced["failed"]
        doc["workloads"][name] = {
            "correct": failed == 0,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": contract_result(spec, traced, True)["metrics"],
        }
    # the calibration rates are host facts: lift them out of the one row
    # that measures them so no number is read without them
    calib = doc["workloads"].get("mm_k27_s2_serial", {}).get("per_layer", {})
    doc["host"]["calibrate"] = {
        k: v["value"] for k, v in calib.items() if k.startswith("perf.calib.")}
    return doc


def print_metrics(workload: str, metrics: dict) -> None:
    for name, entry in metrics.items():
        n = f"  (n={entry['n']}, min {entry['min']:.6g}, max {entry['max']:.6g})" \
            if "n" in entry else ""
        print(f"{workload:<20} {name:<40} {entry['value']:>16.6g} {entry['unit']}{n}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.harness", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=None,
                        help="fix the repetition count instead of the measuring time")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, 1 repetition: self-test only, never a number")
    parser.add_argument("--out", help="also write the final JSON document here")
    parser.add_argument("--trace-out", help="write the traced pass's spans (Chrome trace)")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    recorders: list = []
    if args.workload:
        outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.reps, args.quick, recorders)
        doc = contract_result(spec, outcome, bool(args.trace))
        print_metrics(args.workload, doc["metrics"])
    else:
        doc = full_run(spec, args, recorders)
        for name, row in doc["workloads"].items():
            print_metrics(name, row["end_to_end"])
            print_metrics(name, row["per_layer"])
    if args.trace_out:
        trace.write(args.trace_out, recorders)
    text = json.dumps(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text, flush=True)
    return 0

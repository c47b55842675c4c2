"""``python -m benchmarks.harness.compare A.json B.json``

Compares two full harness documents (A = parent, B = change).  Every
end-to-end metric is judged by its own bound and direction from
``BENCHMARK.json``; one row per (workload, metric) shows both values and
the ratio B/A (base A).  A cell is *unresolved* when either side's
run-to-run spread exceeds the bound, unless every B sample beats every A
sample.  Exit status 1 on a regression or on a higher failed/attempted
ratio, 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from statistics import median, quantiles

from benchmarks.harness.main import load_spec


def spread(samples: list[float]) -> float:
    """Run-to-run spread as a share of the median: interquartile distance,
    or the full range when there are too few samples for quartiles."""
    if len(samples) < 2:
        return 0.0
    if len(samples) < 4:
        width = max(samples) - min(samples)
    else:
        q1, _, q3 = quantiles(samples, n=4)
        width = q3 - q1
    return width / abs(median(samples))


def judge(metric: dict, a: dict, b: dict) -> tuple[float, str]:
    """(how much worse B is than A as a share of A, verdict)."""
    lower = metric["better"] == "lower"
    worse = (b["value"] - a["value"]) / a["value"] * (1 if lower else -1)
    sa, sb = a.get("samples", []), b.get("samples", [])
    if max(spread(sa), spread(sb)) > metric["bound"]:
        clean_win = sa and sb and (
            max(sb) < min(sa) if lower else min(sb) > max(sa))
        return worse, "better" if clean_win else "unresolved"
    return worse, "REGRESSION" if worse > metric["bound"] else "ok"


def compare(spec: dict, a: dict, b: dict) -> tuple[list[str], bool]:
    bad = False
    lines = [f"{'workload':<20} {'metric':<14} {'A':>12} {'B':>12} {'B/A':>7} "
             f"{'worse':>7} {'bound':>6}  verdict"]
    for w in spec["workloads"]:
        ra, rb = a["workloads"][w["name"]], b["workloads"][w["name"]]
        for metric in spec["end_to_end"]:
            ma, mb = ra["end_to_end"][metric["name"]], rb["end_to_end"][metric["name"]]
            worse, verdict = judge(metric, ma, mb)
            bad |= verdict == "REGRESSION"
            lines.append(
                f"{w['name']:<20} {metric['name']:<14} {ma['value']:>12.5g} "
                f"{mb['value']:>12.5g} {mb['value'] / ma['value']:>7.3f} "
                f"{worse:>+7.1%} {metric['bound']:>6.0%}  {verdict}")
        fa, fb = ra["failed"] / ra["attempted"], rb["failed"] / rb["attempted"]
        verdict = "REGRESSION" if fb > fa else "ok"
        bad |= fb > fa
        lines.append(f"{w['name']:<20} {'fail_ratio':<14} {fa:>12.5g} {fb:>12.5g} "
                     f"{'':>7} {'':>7} {'any':>6}  {verdict}")
    return lines, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    lines, bad = compare(load_spec(), *docs)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

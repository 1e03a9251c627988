#!/usr/bin/env python3
"""Compare two benchmark result files: parent (BASE) against a change.

    python bench/compare.py BASE.json CHANGE.json

Each file holds ``{"runs": [...]}`` as ``bench/run.py --out`` writes it.
For every workload x end-to-end metric of BENCHMARK.json this prints each
side's median and quartiles over its untraced runs, the change in the
median, the metric's bound, and one label:

* ``improved`` — the change wins at least 9 of every 10 pairs (run i of
  BASE against run i of CHANGE; ties count for neither side) and the
  medians differ, in the better direction, by more than BASE's
  interquartile range;
* ``worse`` — the change's median is worse than BASE's by more than the
  bound (a share of BASE's median);
* ``unresolved`` — either side's spread (interquartile range over
  median) is wider than the bound and not every change run reads better
  than every BASE run;
* ``unchanged`` — otherwise.

Traced runs at the same seed must carry identical ``model.*`` counters:
any difference is flagged, because a host-only change may not move a
simulated statistic.  Exit status is 1 when a metric is worse, a model
counter differs, or a run failed its output checks; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [run["workloads"][workload]["metrics"][metric]["value"]
            for run in runs
            if metric in run["workloads"].get(workload, {})
            .get("metrics", {})]


def label(base: list[float], change: list[float], better: str,
          bound: float) -> str:
    """The verdict for one workload x metric (see module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and sign * (cm - bm) > b3 - b1:
        return "improved"
    if sign * (bm - cm) > bound * abs(bm):
        return "worse"
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    every_run_better = (min(change) > max(base) if sign > 0
                        else max(change) < min(base))
    if spread > bound and not every_run_better:
        return "unresolved"
    return "unchanged"


def model_diffs(base: list[dict], change: list[dict]) -> list[str]:
    """``model.*`` counters that differ between traced runs at one seed."""
    out = []
    by_seed = {run["seed"]: run for run in base if run["trace"]}
    for run in change:
        ref = by_seed.get(run["seed"])
        if not run["trace"] or ref is None:
            continue
        for workload, res in run["workloads"].items():
            old = ref["workloads"].get(workload, {}).get("metrics", {})
            for name, metric in res["metrics"].items():
                if name.startswith("model.") and name in old \
                        and old[name]["value"] != metric["value"]:
                    out.append(f"seed {run['seed']} {workload} {name}: "
                               f"{old[name]['value']!r} -> "
                               f"{metric['value']!r}")
    return out


def failed_runs(name: str, runs: list[dict]) -> list[str]:
    return [f"{name} seed {run['seed']} {workload}: "
            f"{res.get('failed')} failed"
            for run in runs for workload, res in run["workloads"].items()
            if not res.get("correct")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/compare.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    base = json.loads(args.base.read_text())["runs"]
    change = json.loads(args.change.read_text())["runs"]
    base_plain = [r for r in base if not r["trace"]]
    change_plain = [r for r in change if not r["trace"]]

    status = 0
    print("workload   metric             base median [q1, q3] -> change "
          "median [q1, q3]  delta  bound  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = values(base_plain, workload, name)
            c = values(change_plain, workload, name)
            if not b or not c:
                print(f"{workload:<10} {name:<18} missing in "
                      f"{'BASE' if not b else 'CHANGE'}")
                status = 1
                continue
            verdict = label(b, c, metric["better"], metric["bound"])
            status |= verdict == "worse"
            b1, bm, b3 = quartiles(b)
            c1, cm, c3 = quartiles(c)
            delta = (cm - bm) / bm if bm else 0.0
            print(f"{workload:<10} {name:<18} {bm:.5g} [{b1:.5g}, "
                  f"{b3:.5g}] -> {cm:.5g} [{c1:.5g}, {c3:.5g}]  "
                  f"{delta:+.1%}  {metric['bound']:.0%}  {verdict}  "
                  f"({metric['unit']}, n={len(b)}/{len(c)})")
    for line in model_diffs(base, change):
        print(f"MODEL DIFF {line}")
        status = 1
    for line in failed_runs("BASE", base) + failed_runs("CHANGE", change):
        print(f"FAILED RUN {line}")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

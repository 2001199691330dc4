#!/usr/bin/env python3
"""Compare two sets of benchmark runs (parent ``A``, change ``B``).

Each set is a file ``run.py --out`` wrote. For every workload and
end-to-end metric this prints both sides' quartiles and a verdict,
using the metric's bound from ``BENCHMARK.json``:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``regressed`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread (quartile distance over the
  median, on either side) is wider than the bound, so the medians
  cannot tell, unless every run of B beats every run of A.

``setup_s`` also has an absolute floor: a median that moved by less
than 0.1 s is ``ok`` whatever its share.

``--claim metric:workload`` checks a claimed gain: runs are paired by
seed, B must win at least nine tenths of the pairs (ties count for
neither), and the medians must differ by more than A's own quartile
distance. Per-layer numbers of the traced runs are listed side by side,
with counts marked when they do not repeat exactly.

Run::

    python3 benchmarks/suite/compare.py setA.json setB.json \\
        [--claim op_time_ref:cold_eval] [--json summary.json]

Exits 1 when a metric regressed or a claim does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

from harness import load_definition, quartiles

#: Fraction of seed-paired runs a claimed gain must win.
CLAIM_WIN_SHARE = 0.9

#: Per-layer units whose values should repeat exactly (counts, and the
#: model's validation error, which moves only when the model does).
EXACT_UNITS = ("count", "%")

#: Absolute change below which a metric is ``ok`` whatever its share. A
#: set-up of a few hundredths of a second moves by more than any bound
#: from scheduling alone.
FLOORS = {"setup_s": 0.1}


def load_set(path: Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text())


def values_by_seed(run_set: dict, workload: str, metric: str,
                   trace: int = 0) -> dict[int, float]:
    """Metric value of every successful run, keyed by seed."""
    return {
        run["seed"]: run["result"]["metrics"][metric]["value"]
        for run in run_set["runs"]
        if run["workload"] == workload and run["trace"] == trace
        and run["result"] is not None
    }


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of it."""
    if not parent:
        raise ValueError("a share of a zero parent value")
    if better == "lower":
        return (change - parent) / parent
    return (parent - change) / parent


def spread(values: list[float]) -> float:
    """Quartile distance over the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, floor: float = 0.0) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric; a median
    that moved by less than ``floor`` (in the metric's unit) is ``ok``."""
    def beats(x: float, y: float) -> bool:
        return x < y if better == "lower" else x > y

    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    if abs(change_median - parent_median) < floor:
        return "ok"
    if max(spread(parent), spread(change)) > bound and not all(
        beats(c, p) for c in change for p in parent
    ):
        return "unresolved"
    worse = worse_by(parent_median, change_median, better)
    return "regressed" if worse > bound else "ok"


def claim_holds(parent: dict[int, float], change: dict[int, float],
                better: str) -> tuple[int, int, bool]:
    """(wins, pairs, holds) for a claimed gain of ``change`` over
    ``parent``, pairing runs by seed."""
    if set(parent) != set(change):
        raise ValueError(
            f"claim needs the same seeds on both sides: "
            f"{sorted(parent)} vs {sorted(change)}"
        )
    wins = sum(
        1 for seed in parent
        if (change[seed] < parent[seed] if better == "lower"
            else change[seed] > parent[seed])
    )
    q1, parent_median, q3 = quartiles(parent.values())
    gap = statistics.median(change.values()) - parent_median
    gap = -gap if better == "lower" else gap
    pairs = len(parent)
    return wins, pairs, wins >= CLAIM_WIN_SHARE * pairs and gap > q3 - q1


def summarize(a: dict, b: dict, definition: dict) -> dict[str, Any]:
    """Every end-to-end comparison row plus the traced per-layer pairs."""
    rows = []
    for workload in (w["name"] for w in definition["workloads"]):
        for metric in definition["end_to_end"]:
            parent = list(values_by_seed(a, workload, metric["name"])
                          .values())
            change = list(values_by_seed(b, workload, metric["name"])
                          .values())
            if not parent or not change:
                continue
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "bound": metric["bound"],
                "a": dict(zip(("q1", "median", "q3"), quartiles(parent)),
                          n=len(parent)),
                "b": dict(zip(("q1", "median", "q3"), quartiles(change)),
                          n=len(change)),
                "spread": max(spread(parent), spread(change)),
                "change": -worse_by(statistics.median(parent),
                                    statistics.median(change),
                                    metric["better"]),
                "verdict": verdict(parent, change, metric["better"],
                                   metric["bound"],
                                   FLOORS.get(metric["name"], 0.0)),
            })
    layers = []
    for workload in (w["name"] for w in definition["workloads"]):
        for metric in definition["per_layer"]:
            parent = values_by_seed(a, workload, metric["name"], trace=1)
            change = values_by_seed(b, workload, metric["name"], trace=1)
            if parent and change:
                layers.append({
                    "workload": workload,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": statistics.median(parent.values()),
                    "b": statistics.median(change.values()),
                })
    return {"machine_a": a.get("machine"), "machine_b": b.get("machine"),
            "end_to_end": rows, "per_layer": layers}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare two sets of benchmark runs",
    )
    parser.add_argument("a", type=Path, help="parent set (run.py --out)")
    parser.add_argument("b", type=Path, help="change set (run.py --out)")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC:WORKLOAD")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the comparison here")
    args = parser.parse_args(argv)
    definition = load_definition()
    a, b = load_set(args.a), load_set(args.b)
    summary = summarize(a, b, definition)

    print(f"{'workload':<16} {'metric':<12} {'A q1/med/q3':>32} "
          f"{'B q1/med/q3':>32} {'change':>8} {'spread':>7} {'bound':>6}  "
          f"verdict")
    for row in summary["end_to_end"]:
        sides = [
            f"{s['q1']:.4g}/{s['median']:.4g}/{s['q3']:.4g} {row['unit']}"
            for s in (row["a"], row["b"])
        ]
        print(f"{row['workload']:<16} {row['metric']:<12} {sides[0]:>32} "
              f"{sides[1]:>32} {row['change']:>+8.1%} {row['spread']:>7.1%} "
              f"{row['bound']:>6.0%}  {row['verdict']}")
    for layer in summary["per_layer"]:
        mark = ""
        if layer["unit"] in EXACT_UNITS and layer["a"] != layer["b"]:
            mark = "  (differs)"
        print(f"  {layer['workload']:<16} {layer['metric']:<36} "
              f"A={layer['a']:.6g} B={layer['b']:.6g} {layer['unit']}{mark}")

    failed = any(r["verdict"] == "regressed" for r in summary["end_to_end"])
    better = {m["name"]: m["better"] for m in definition["end_to_end"]}
    for claim in args.claim:
        metric, _, workload = claim.partition(":")
        wins, pairs, holds = claim_holds(
            values_by_seed(a, workload, metric),
            values_by_seed(b, workload, metric),
            better[metric],
        )
        print(f"claim {metric} on {workload}: B wins {wins}/{pairs} pairs: "
              f"{'holds' if holds else 'not met'}")
        failed = failed or not holds
    if args.json is not None:
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

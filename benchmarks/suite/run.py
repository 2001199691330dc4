#!/usr/bin/env python3
"""Run one benchmark workload, or a set of seeded runs of all of them.

One run (the form ``BENCHMARK.json`` declares)::

    python3 benchmarks/suite/run.py --workload cold_eval --seed 1 \\
        --seconds 10 --trace 0

sets the workload up, measures it for ``--seconds``, checks every
output, prints each metric by name with its unit and sample count, and
ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``). It exits non-zero if any check failed.

A set of runs, each in a fresh interpreter so no workload's memos warm
another's::

    python3 benchmarks/suite/run.py --workload all --seed 1 --runs 10 \\
        --out setA.json [--out setB.json]

runs seeds 1..10 untraced plus one traced run per workload and writes
every result, with the machine it ran on, for ``compare.py``. Two
``--out`` files take two sets interleaved run by run.

Every run, and every process it starts, hashes strings with the same
seed (``HASH_SEED``): the script re-executes itself with it when it is
not set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import harness
from harness import (
    ROOT,
    SETUP_REPEATS,
    Probe,
    available_cpus,
    end_to_end_metrics,
    load_definition,
    pin,
    result_line,
    span_layer_metrics,
    trace_overhead,
    wall_summary,
)

#: ``PYTHONHASHSEED`` of every run. Set orders and dict layouts then
#: repeat from run to run, and with them the work the program does: with
#: a random seed per process, serve runs spread 4-8 % in reference
#: units, against under 3 % with this one.
HASH_SEED = "0"


def run_one(name: str, seed: int, seconds: float, trace: bool,
            definition: dict, **sizes) -> dict:
    """Set up, measure and check one workload in this process.

    The run, child processes included, is pinned to one CPU, which a
    speed probe samples from the first setup to the last round, so
    setups and rounds are both timed against the machine's speed at
    the moment. One CPU also stays busy
    from the first call to the last: a CPU that idles, as a server's
    does between requests, waits for the host to wake it, which takes
    milliseconds on a busy host and which no probe of its speed sees.
    Metrics are read only after the workload is closed, so the peak
    resident set covers the child processes it waited for, the measured
    server among them.
    """
    from workloads import WORKLOADS, validation_tdp_error_pct

    workload = WORKLOADS[name](seed, **sizes)
    cpus = available_cpus()
    setups = []
    probe = None
    try:
        pin(cpus[:1])
        probe = Probe(memory=workload.memory_reference)
        for repeat in range(1 if trace else SETUP_REPEATS):
            if repeat:
                workload.close()
            start_s = time.perf_counter()
            workload.setup()
            setups.append((start_s, time.perf_counter()))
        measurement = workload.measure(seconds, trace)
        post_checks, post_failures = workload.finish()
    finally:
        workload.close()
        # The measured processes have stopped and the probe has not, so
        # the peak is the program's, never the probe's heap.
        rss_mb = harness.peak_rss_mb()
        speed = probe.stop() if probe is not None else None
        pin(cpus)
    if trace:
        declared = definition["per_layer"]
        values = {m["name"]: 0.0 for m in declared}
        values.update(span_layer_metrics(measurement))
        values.update(workload.layer_metrics(measurement))
        values["trace_overhead"] = trace_overhead(measurement, speed,
                                                  workload.shares)
        values["probe.reference_ms"] = speed.median_ms()
        values["model.validation_tdp_err_pct"] = validation_tdp_error_pct()
        samples = {n: len(measurement.calls(traced=True)) for n in values}
        samples["trace_overhead"] = len(measurement.overhead_pairs)
    else:
        declared = definition["end_to_end"]
        values, samples = end_to_end_metrics(measurement, setups, rss_mb,
                                             speed, workload.shares)
        print(f"{name:<16} {wall_summary(measurement, speed)}")
    failures = measurement.failures + post_failures
    for failure in failures[:20]:
        print(f"FAIL {name}: {failure}", file=sys.stderr)
    for metric in declared:
        print(f"{name:<16} {metric['name']:<36} "
              f"{values[metric['name']]:>14.6g} {metric['unit']:<6} "
              f"(n={samples[metric['name']]})")
    return result_line(declared, values,
                       attempted=measurement.attempted + post_checks,
                       failed=len(failures))


def machine() -> dict:
    """Where a set of runs was measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "git_sha": sha,
    }


def run_sets(names: list[str], seed: int, runs: int, seconds: float,
             outs: list[Path]) -> int:
    """Seeded untraced runs plus one traced run per workload for each
    file in ``outs``, each run in a fresh child interpreter.

    With several files the sets are interleaved run by run, the first
    set going first on even steps and last on odd ones, so a drift in
    the machine's speed falls on every set alike.
    """
    sets: list[list[dict]] = [[] for _ in outs]
    worst = 0
    step = 0
    for name in names:
        plan = [(s, 0) for s in range(seed, seed + runs)] + [(seed, 1)]
        for run_seed, trace in plan:
            order = list(enumerate(outs))
            if step % 2:
                order.reverse()
            step += 1
            for index, out in order:
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--seed", str(run_seed),
                           "--seconds", str(seconds), "--trace", str(trace)]
                start_s = time.perf_counter()
                done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                      text=True, timeout=900)
                wall_s = time.perf_counter() - start_s
                lines = done.stdout.strip().splitlines()
                result = (json.loads(lines[-1]) if done.returncode == 0
                          else None)
                if done.returncode:
                    sys.stderr.write(done.stderr)
                worst = max(worst, done.returncode)
                print(f"{out.name} {name} seed={run_seed} trace={trace} "
                      f"exit={done.returncode} wall={wall_s:.1f}s",
                      flush=True)
                sets[index].append({
                    "workload": name, "seed": run_seed, "trace": trace,
                    "returncode": done.returncode, "wall_s": wall_s,
                    "result": result,
                })
    for out, entries in zip(outs, sets):
        out.write_text(json.dumps(
            {"machine": machine(), "seconds": seconds, "runs": entries},
            indent=1,
        ) + "\n")
        print(f"wrote {out}")
    return 1 if worst else 0


def main(argv: list[str] | None = None) -> int:
    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    parser = argparse.ArgumentParser(
        description="run the benchmark workloads (see README.md)",
    )
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=definition["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="with --out: seeds seed..seed+runs-1")
    parser.add_argument("--out", type=Path, action="append", default=[],
                        help="run a set of child runs and write them "
                             "here; repeat for interleaved sets")
    args = parser.parse_args(argv)
    harness.require_src()
    if args.out:
        chosen = names if args.workload == "all" else [args.workload]
        return run_sets(chosen, args.seed, args.runs, args.seconds,
                        args.out)
    if args.workload == "all":
        parser.error("--workload all needs --out")
    result = run_one(args.workload, args.seed, args.seconds,
                     bool(args.trace), definition)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    sys.exit(main())

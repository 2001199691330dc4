"""Command-line interface: ``mcpat-repro``.

Subcommands mirror how the original tool is used:

* ``report <preset|config.json>`` — model a chip and print the
  McPAT-style breakdown.
* ``validate`` — run the published-vs-modeled validation tables.
* ``scaling`` — the technology-scaling sweep.
* ``clustering`` — the 22 nm manycore clustering case study.
* ``sweep`` — batch-evaluate a parameter grid over a base config on the
  parallel, cached evaluation engine.
* ``stats`` — evaluate a config with instrumentation on and print the
  observability metrics table (cache/memo hit rates, pool throughput).
* ``serve`` — run the long-running async HTTP/JSON evaluation service
  (:mod:`repro.serve`): ``POST /evaluate``, ``POST /sweep``,
  ``GET /metrics``, ``GET /healthz``.
* ``lint`` — run the model-invariant static-analysis suite
  (:mod:`repro.analysis`) over source trees.

Recording flags (``report``, ``sweep``, ``stats``): ``--trace out.json``
writes the recorded spans as a Chrome ``trace_event`` file (a ``.jsonl``
suffix switches to JSONL spans), ``--profile`` prints a per-component
span-time breakdown (``sweep`` adds the engine metrics), and
``report --trace-detail`` adds the high-frequency solver spans to
either recording.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from collections.abc import Iterator
from pathlib import Path

from repro import obs
from repro.chip import REPORT_DEPTH, Processor, render_report_text
from repro.config import load_system_config, presets


def _resolve_config(source: str):
    if source in presets.VALIDATION_PRESETS:
        return presets.VALIDATION_PRESETS[source]()
    path = Path(source)
    if path.exists():
        try:
            return load_system_config(path)
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"config file {path} is not valid JSON: {exc}"
            ) from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise SystemExit(
                f"config file {path} is malformed: {exc!r}"
            ) from exc
    known = ", ".join(presets.VALIDATION_PRESETS)
    raise SystemExit(
        f"unknown config {source!r}: not a preset ({known}) nor a file"
    )


@contextlib.contextmanager
def _recording(
    args: argparse.Namespace, always: bool = False,
) -> Iterator[None]:
    """Record spans around a subcommand's work as its flags ask.

    ``--trace PATH`` records and writes the spans to PATH (a ``.jsonl``
    suffix selects JSONL, anything else a Chrome trace), ``--profile``
    records and prints the span profile after the command's output, and
    ``--trace-detail`` raises either recording to the solver-span tier;
    given alone it is a usage error. ``always`` records without a flag
    (``stats`` prints the metrics the recording collects).
    """
    trace = args.trace
    profile = getattr(args, "profile", False)
    detail = getattr(args, "trace_detail", False)
    if detail and not (trace or profile):
        print("mcpat-repro: --trace-detail needs --trace or --profile",
              file=sys.stderr)
        raise SystemExit(2)
    if not (always or trace or profile):
        yield
        return
    obs.reset()
    obs.enable(detail=detail)
    timer = obs.timer()
    try:
        yield
    finally:
        wall_s = timer.elapsed_s()
        obs.disable()
    if profile:
        print("\nSpan timing by component:")
        print(obs.format_profile(
            obs.profile(), wall_s=wall_s, covered_s=obs.root_total_s(),
        ))
    if trace:
        if trace.endswith(".jsonl"):
            obs.write_jsonl(trace)
        else:
            obs.write_chrome_trace(trace)
        print(f"\ntrace: {len(obs.spans())} spans -> {trace}")


def _cmd_report(args: argparse.Namespace) -> int:
    config = _resolve_config(args.config)
    with _recording(args):
        # Single source of the report text, shared with the serve tier
        # so `POST /evaluate` responses are byte-identical to this.
        print(render_report_text(Processor(config), max_depth=args.depth))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    if args.update_goldens:
        from repro.goldens import write_goldens

        written = write_goldens()
        for path in written:
            print(f"wrote {path}")
        return 0
    if args.against_goldens:
        from repro.goldens import compare_to_goldens, format_golden_diffs

        try:
            diffs = compare_to_goldens()
        except FileNotFoundError as exc:
            raise SystemExit(str(exc)) from exc
        print(format_golden_diffs(diffs))
        return 0 if not diffs else 1

    from repro.experiments import format_validation_table, run_validation

    print(format_validation_table(run_validation()))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Evaluate one config with instrumentation on; print the metrics."""
    from repro.engine import EvalCache, evaluate_many, metrics_snapshot

    config = _resolve_config(args.config)
    cache = EvalCache()
    repeat = max(1, args.repeat)
    with _recording(args, always=True):
        for _ in range(repeat):
            evaluate_many([config], jobs=args.jobs, cache=cache)
        print(f"metrics for {repeat} evaluation(s) of {config.name}:\n")
        print(obs.format_metrics_table(metrics_snapshot(cache)))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.experiments.tech_scaling import (
        format_scaling_table,
        run_tech_scaling,
    )

    print(format_scaling_table(run_tech_scaling(jobs=args.jobs)))
    return 0


def _cmd_clustering(args: argparse.Namespace) -> int:
    from repro.experiments.clustering import (
        format_clustering_table,
        run_clustering_study,
    )

    points = run_clustering_study(n_cores=args.cores)
    print(format_clustering_table(points))
    return 0


def _cmd_dvfs(args: argparse.Namespace) -> int:
    from repro.experiments.dvfs import format_dvfs_table, run_dvfs_study

    base = _resolve_config(args.config) if args.config else None
    print(format_dvfs_table(run_dvfs_study(base_config=base)))
    return 0


def _cmd_pipeline(_: argparse.Namespace) -> int:
    from repro.experiments.pipeline_depth import (
        format_pipeline_table,
        run_pipeline_depth_study,
    )

    print(format_pipeline_table(run_pipeline_depth_study()))
    return 0


def _cmd_manycore(args: argparse.Namespace) -> int:
    from repro.experiments.manycore_scaling import (
        format_scaling_points,
        run_manycore_scaling,
    )

    print(format_scaling_points(run_manycore_scaling(jobs=args.jobs)))
    return 0


def _parse_axis(spec: str) -> tuple[str, list]:
    """Parse ``name=v1,v2,...`` into an axis; values are JSON-typed."""
    name, sep, raw = spec.partition("=")
    if not sep or not name or not raw:
        raise SystemExit(
            f"bad --axis {spec!r}: expected name=value1,value2,..."
        )
    values = []
    for token in raw.split(","):
        token = token.strip()
        try:
            values.append(json.loads(token))
        except json.JSONDecodeError:
            values.append(token)
    return name, values


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine import (
        CACHE_CAPACITY,
        EvalCache,
        SweepSpec,
        format_sweep_table,
        run_sweep,
    )
    from repro.perf import SPLASH2_PROFILES

    base = _resolve_config(args.base)
    axes = dict(_parse_axis(spec) for spec in args.axis)
    try:
        spec = SweepSpec.from_axes(base, axes)
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc

    workload = None
    if args.workload is not None:
        if args.workload not in SPLASH2_PROFILES:
            known = ", ".join(SPLASH2_PROFILES)
            raise SystemExit(
                f"unknown workload {args.workload!r} (known: {known})"
            )
        workload = SPLASH2_PROFILES[args.workload]

    # Sized to the grid, so a rerun finds every point the log holds.
    cache = EvalCache(
        max_entries=max(CACHE_CAPACITY, spec.n_points), path=args.cache,
    ) if args.cache else None
    with _recording(args):
        try:
            results = run_sweep(
                spec,
                workload=workload,
                jobs=args.jobs,
                **({"cache": cache} if cache is not None else {}),
                backend=args.backend,
            )
        except ValueError as exc:  # a grid point the schema rejects
            raise SystemExit(str(exc)) from exc
        print(f"{spec.n_points}-point sweep of {base.name}")
        print(format_sweep_table(results))
        if cache is not None:
            print(f"\ncache: {cache.hits} hits, {cache.misses} misses "
                  f"({cache.path})")
        if args.profile:
            from repro.engine import DEFAULT_CACHE, metrics_snapshot

            used = cache if cache is not None else DEFAULT_CACHE
            print("\nEngine metrics:")
            print(obs.format_metrics_table(metrics_snapshot(used)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-running async HTTP evaluation service."""
    from repro.serve import ServeConfig, serve_forever

    if args.trace:
        obs.enable()
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            concurrency=args.concurrency,
            queue_limit=args.queue_limit,
            timeout_s=args.timeout_s,
            jobs=args.jobs,
            cache_path=args.cache,
            **({"cache_entries": args.cache_entries}
               if args.cache_entries is not None else {}),
        )
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    print(f"mcpat-repro serve on http://{config.host}:{config.port} "
          f"(concurrency={config.concurrency}, "
          f"queue_limit={config.queue_limit}, "
          f"timeout={config.timeout_s:g}s, jobs={config.jobs})")
    print("endpoints: POST /evaluate, POST /sweep, GET /jobs/<id>, "
          "GET /metrics, GET /healthz")
    try:
        serve_forever(config)
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        format_json,
        format_sarif,
        format_text,
        lint_paths,
    )

    dimensional = args.dimensional or args.all
    concurrency = args.concurrency or args.all
    keysound = args.keysound or args.all
    try:
        result = lint_paths(
            args.paths, disable=args.disable,
            dimensional=dimensional,
            concurrency=concurrency,
            keysound=keysound,
        )
    except (FileNotFoundError, ValueError) as exc:
        # Usage errors (bad path, unknown rule id) exit 2; findings
        # exit 1; a clean run exits 0.
        print(f"mcpat-repro lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(result))
    elif args.format == "sarif":
        print(format_sarif(result))
    else:
        print(format_text(result))
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``mcpat-repro`` console script."""
    parser = argparse.ArgumentParser(
        prog="mcpat-repro",
        description="McPAT reproduction: power/area/timing modeling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="model a chip, print breakdown")
    report.add_argument("config", help="preset name or config JSON path")
    report.add_argument("--depth", type=int, default=REPORT_DEPTH)
    report.add_argument(
        "--profile", action="store_true",
        help="trace the evaluation and print per-component span timings",
    )
    report.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record trace spans and write them to PATH "
             "(Chrome trace_event JSON; a .jsonl suffix writes "
             "one span per line instead)",
    )
    report.add_argument(
        "--trace-detail", action="store_true",
        help="with --trace or --profile: also record high-frequency "
             "solver spans (large traces)",
    )
    report.set_defaults(func=_cmd_report)

    validate = sub.add_parser("validate", help="published-vs-modeled tables")
    validate.add_argument(
        "--against-goldens", action="store_true",
        help="compare fresh reports to the checked-in golden JSON "
             "reports (tests/goldens/); non-zero exit on mismatch",
    )
    validate.add_argument(
        "--update-goldens", action="store_true",
        help="regenerate the golden JSON reports in place",
    )
    validate.set_defaults(func=_cmd_validate)

    stats = sub.add_parser(
        "stats",
        help="evaluate with instrumentation on, print the metrics table",
    )
    stats.add_argument("config", help="preset name or config JSON path")
    stats.add_argument("--repeat", type=int, default=2,
                       help="evaluations to run (default 2; the second "
                            "exercises the result cache)")
    stats.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1)")
    stats.add_argument("--trace", default=None, metavar="PATH",
                       help="also write the recorded spans to PATH")
    stats.set_defaults(func=_cmd_stats)

    scaling = sub.add_parser("scaling", help="technology scaling sweep")
    scaling.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1)")
    scaling.set_defaults(func=_cmd_scaling)

    clustering = sub.add_parser("clustering", help="clustering case study")
    clustering.add_argument("--cores", type=int, default=64)
    clustering.set_defaults(func=_cmd_clustering)

    dvfs = sub.add_parser("dvfs", help="voltage/frequency scaling study")
    dvfs.add_argument("config", nargs="?", default=None,
                      help="preset or JSON (default: niagara2)")
    dvfs.set_defaults(func=_cmd_dvfs)

    pipeline = sub.add_parser("pipeline", help="pipeline depth study")
    pipeline.set_defaults(func=_cmd_pipeline)

    manycore = sub.add_parser("manycore",
                              help="max cores per node under budgets")
    manycore.add_argument("--jobs", type=int, default=1,
                          help="worker processes (default 1)")
    manycore.set_defaults(func=_cmd_manycore)

    sweep = sub.add_parser(
        "sweep",
        help="batch-evaluate a parameter grid over a base config",
    )
    sweep.add_argument("base", help="preset name or config JSON path")
    sweep.add_argument(
        "--axis", action="append", required=True, metavar="NAME=V1,V2,...",
        help="parameter axis, e.g. cores=2,4,8 or tech_nm=45,32,22; "
             "dotted paths like core.issue_width=1,2 reach nested fields "
             "(repeatable; the grid is the cross product)",
    )
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default 1)")
    sweep.add_argument(
        "--backend", default="scalar",
        choices=("auto", "scalar", "numpy"),
        help="evaluation backend: scalar (exact, default), numpy "
             "(vectorized frequency/temperature axes, needs the [fast] "
             "extra), or auto (numpy when available)",
    )
    sweep.add_argument("--workload", default=None,
                       help="SPLASH-2 profile for runtime metrics")
    sweep.add_argument("--cache", default=None, metavar="PATH",
                       help="persistent JSONL result cache; a rerun with "
                            "the same file resumes, evaluating only the "
                            "points it does not hold")
    sweep.add_argument(
        "--profile", action="store_true",
        help="trace the sweep and print per-component span timings "
             "plus engine metrics (cache/memo hit rates, throughput)",
    )
    sweep.add_argument("--trace", default=None, metavar="PATH",
                       help="record trace spans and write them to PATH")
    sweep.set_defaults(func=_cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="run the async HTTP/JSON evaluation service",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (default 8080; 0 = ephemeral)")
    serve.add_argument("--concurrency", type=int, default=4,
                       help="evaluations allowed to run at once "
                            "(default 4)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="requests allowed to wait for a slot before "
                            "the server answers 503 (default 16)")
    serve.add_argument("--timeout-s", type=float, default=60.0,
                       help="per-request wall-clock budget in seconds; "
                            "504 on expiry (default 60)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="engine worker processes available to one "
                            "sweep request (default 1)")
    serve.add_argument("--cache", default=None, metavar="PATH",
                       help="JSONL file backing the shared result cache "
                            "(persists across restarts)")
    serve.add_argument("--cache-entries", type=int, default=None,
                       help="in-memory result-cache capacity in records "
                            "(default: repro.engine.CACHE_CAPACITY)")
    serve.add_argument("--trace", action="store_true",
                       help="enable obs instrumentation: request spans "
                            "and span histograms appear in GET /metrics")
    serve.set_defaults(func=_cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="static analysis: cache-purity, numeric, units lints",
    )
    lint.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="files or directories to lint (e.g. src/ tests/)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default text; sarif for code scanning)",
    )
    lint.add_argument(
        "--disable", action="append", default=[], metavar="RULE",
        help="disable a rule id, e.g. --disable NUM001 (repeatable)",
    )
    lint.add_argument(
        "--dimensional", action="store_true",
        help="also run the interprocedural physical-dimension inference "
             "pass (DIM001-DIM004)",
    )
    lint.add_argument(
        "--concurrency", action="store_true",
        help="also run the whole-program concurrency-safety pass "
             "(CONC001-CONC004: races, blocking-in-async, fork safety)",
    )
    lint.add_argument(
        "--keysound", action="store_true",
        help="also run the whole-program cache-key soundness pass "
             "(KEY001/KEY002, DET001/DET002: stale keys, over-keying, "
             "nondeterministic or impure cached computations)",
    )
    lint.add_argument(
        "--all", action="store_true",
        help="run every analysis pass (base + --dimensional + "
             "--concurrency + --keysound) with one merged report",
    )
    # Ignored: the passes run in one thread. Kept, hidden, because the
    # benchmark's lint_tree workload still passes ``--jobs 1``; it can go
    # once that workload drops it.
    lint.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    lint.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

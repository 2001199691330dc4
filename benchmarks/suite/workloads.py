"""The four benchmark workloads.

Each workload turns a seed into inputs (the program only ever sees the
inputs), sets itself up, yields rounds of timed :class:`~harness.Op`
calls into the program's public functions, checks every result, and
contributes its own per-layer numbers to a traced run. Sizes are
constructor arguments so the tests can run every workload tiny; the
benchmark itself always uses the defaults. Why each workload exists is
recorded in ``BENCHMARK.json`` and README.md.

The seed changes which inputs and in what order, never how much work a
run holds, so runs with different seeds measure the same thing.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from harness import (
    CALL_PREFIX,
    ROOT,
    SRC_DIR,
    SUITE_DIR,
    TRACE_PAIRS,
    WORK_DIR,
    Call,
    Measurement,
    Op,
    Round,
    measure,
)

VALIDATION_PRESETS = ("niagara1", "niagara2", "alpha21364", "xeon_tulsa")
GOLDENS_DIR = ROOT / "tests" / "goldens"
CORPUS_ARCHIVE = SUITE_DIR / "corpus" / "src-4f51bd9.tar.gz"
ANALYSIS_PASSES = ("base", "dimensional", "concurrency", "keysound")

#: Relative agreement the batch backend promises against scalar.
BATCH_REL_TOL = 1e-9

#: Shares of the serve request stream: repeats of the working set
#: (cache hits), new clock points (misses on warm memos), and preset
#: reports (``render_report_text``). They also weight each kind's
#: median in ``op_time_ref``.
SERVE_MIX = {"repeat": 0.70, "clock": 0.25, "preset": 0.05}


def seeded(workload: str, seed: int, stream: str = "") -> random.Random:
    """A generator for one input stream of one workload and seed.

    String seeds hash deterministically (unlike ``hash()``), so the same
    seed gives the same inputs in every interpreter.
    """
    return random.Random(f"{workload}:{seed}:{stream}")


class Workload:
    """Common shape: ``setup`` (repeatable), timed rounds, final checks."""

    name = ""
    min_rounds = 2
    #: Weight of each call kind in ``op_time_ref`` (None: equal).
    shares: Mapping[str, float] | None = None
    #: Whether the speed probe's reference includes its memory walk
    #: (see probe.py): for a workload whose heap outgrows the caches.
    memory_reference = False

    def setup(self) -> None:
        """Prepare the state the timed rounds need."""

    def close(self) -> None:
        """Release what ``setup`` acquired (processes, files)."""

    def rounds(self) -> Iterator[list[Op]]:
        raise NotImplementedError

    def measure(self, seconds: float, trace: bool) -> Measurement:
        return measure(self.rounds(), seconds, self.min_rounds, trace)

    def finish(self) -> tuple[int, list[str]]:
        """Checks that need the whole run: (checks attempted, failures)."""
        return 0, []

    def layer_metrics(self, measurement: Measurement) -> dict[str, float]:
        """Per-layer numbers only this workload produces (traced runs)."""
        return {}


# -- cold_eval -----------------------------------------------------------


def check_report(preset: str, actual: dict, golden: dict) -> list[str]:
    """A cold report must equal the checked-in golden report exactly."""
    if actual == golden:
        return []
    return [f"{preset}: report differs from tests/goldens/{preset}.json"]


class ColdEval(Workload):
    """Cold single-chip evaluation of the four validation presets."""

    name = "cold_eval"

    def __init__(self, seed: int,
                 presets: Sequence[str] = VALIDATION_PRESETS) -> None:
        self.seed = seed
        self.presets = tuple(presets)

    def inputs(self, n_rounds: int) -> list[tuple[str, ...]]:
        """The preset order of the first ``n_rounds`` rounds."""
        rng = seeded(self.name, self.seed)
        return [tuple(rng.sample(self.presets, len(self.presets)))
                for _ in range(n_rounds)]

    def setup(self) -> None:
        from repro import fastpath
        from repro.chip import Processor
        from repro.config import presets

        self.configs = {
            name: presets.VALIDATION_PRESETS[name]() for name in self.presets
        }
        self.goldens = {
            name: json.loads(
                (GOLDENS_DIR / f"{name}.json").read_text()
            )["report"]
            for name in self.presets
        }
        fastpath.clear_all()
        for config in self.configs.values():
            Processor(config).report()

    def _report(self, name: str) -> Any:
        from repro.chip import Processor

        return Processor(self.configs[name]).report()

    def _check(self, name: str, report: Any) -> list[str]:
        from repro.chip.export import result_to_dict

        return check_report(name, result_to_dict(report), self.goldens[name])

    def rounds(self) -> Iterator[list[Op]]:
        from repro import fastpath

        rng = seeded(self.name, self.seed)
        while True:
            order = rng.sample(self.presets, len(self.presets))
            yield [
                Op(
                    name="chip.Processor.report",
                    kind=name,
                    prepare=fastpath.clear_all,
                    call=partial(self._report, name),
                    check=partial(self._check, name),
                )
                for name in order
            ]


# -- dvfs_sweep ----------------------------------------------------------

#: Supply scales (x nominal) and temperatures the seed draws from. Both
#: presets' shared-cache bank-saturation kinks sit well below the clock
#: windows below at every one of these, so each structure group is one
#: affine segment and the probe count per sweep is the same every call.
VDD_SCALES = (0.90, 0.92, 0.94, 0.96, 0.98, 1.00, 1.02, 1.04)
TEMPERATURES_K = (330.0, 340.0, 350.0, 360.0, 370.0, 380.0)


def check_sweep(results: Sequence[Any], indices: Sequence[int],
                expected_points: int,
                evaluate: Callable[[Any], Any]) -> list[str]:
    """Every point vectorized; sampled points within 1e-9 of scalar."""
    from repro.batch import METRICS

    problems = []
    if len(results) != expected_points:
        problems.append(f"{len(results)} of {expected_points} points")
    fallback = sum(1 for r in results if r.record.backend != "numpy")
    if fallback:
        problems.append(f"{fallback} points fell back to the scalar path")
    for i in indices:
        if i >= len(results):
            continue
        reference = evaluate(results[i].config)
        for metric in METRICS:
            want = getattr(reference, metric)
            got = getattr(results[i].record, metric)
            if abs(got - want) > BATCH_REL_TOL * max(abs(want), 1e-30):
                problems.append(
                    f"point {i} {metric}: batch {got!r} vs scalar {want!r}"
                )
    return problems


class DvfsSweep(Workload):
    """Operating-point sweeps on known structures (the batch backend)."""

    name = "dvfs_sweep"

    def __init__(self, seed: int,
                 presets: Sequence[str] = ("niagara1", "alpha21364"),
                 n_vdd: int = 4, n_clock: int = 125, n_temp: int = 3,
                 checks_per_sweep: int = 8) -> None:
        from repro import batch

        if not batch.have_numpy():
            raise RuntimeError(
                "dvfs_sweep needs numpy (the [fast] extra): the batch "
                "backend would silently run scalar without it"
            )
        rng = seeded(self.name, seed)
        self.seed = seed
        self.presets = tuple(presets)
        self.vdd_scales = sorted(rng.sample(VDD_SCALES, n_vdd))
        self.temperatures = sorted(rng.sample(TEMPERATURES_K, n_temp))
        self.n_clock = n_clock
        self.checks_per_sweep = checks_per_sweep

    def _window(self, rng: random.Random, f0: float) -> list[float]:
        lo = f0 * rng.uniform(0.95, 1.15)
        hi = lo * rng.uniform(1.2, 1.4)
        step = (hi - lo) / max(1, self.n_clock - 1)
        return [lo + step * i for i in range(self.n_clock)]

    def _plan(self, stream: str) -> Iterator[tuple[str, list[float],
                                                   list[int]]]:
        """(preset, clock window, checked point indices) per sweep."""
        from repro.config import presets

        rng = seeded(self.name, self.seed, stream)
        n_points = self.n_clock * len(self.vdd_scales) * len(
            self.temperatures)
        while True:
            for name in self.presets:
                f0 = presets.VALIDATION_PRESETS[name]().clock_hz
                yield (name, self._window(rng, f0), sorted(rng.sample(
                    range(n_points), min(self.checks_per_sweep, n_points),
                )))

    def inputs(self, n_sweeps: int) -> list[tuple]:
        plan = self._plan("sweeps")
        return [(tuple(self.vdd_scales), tuple(self.temperatures),
                 name, tuple(clocks), tuple(indices))
                for name, clocks, indices in
                (next(plan) for _ in range(n_sweeps))]

    def _spec(self, name: str, clocks: list[float]) -> Any:
        from repro.config import presets
        from repro.engine import SweepSpec
        from repro.tech import Technology

        base = presets.VALIDATION_PRESETS[name]()
        nominal = Technology(
            node_nm=base.node_nm, temperature_k=base.temperature_k,
            device_type=base.device_type,
        ).vdd
        return SweepSpec.from_axes(base, {
            "vdd_v": [round(nominal * s, 4) for s in self.vdd_scales],
            "clock_hz": clocks,
            "temperature_k": list(self.temperatures),
        })

    def setup(self) -> None:
        from repro import fastpath
        from repro.engine import run_sweep

        fastpath.clear_all()
        plan = self._plan("setup")
        for _ in self.presets:
            name, clocks, _ = next(plan)
            run_sweep(self._spec(name, clocks), cache=None, backend="numpy")

    def rounds(self) -> Iterator[list[Op]]:
        from repro.engine import evaluate_config, run_sweep

        plan = self._plan("sweeps")
        while True:
            ops = []
            for _ in self.presets:
                name, clocks, indices = next(plan)
                spec = self._spec(name, clocks)
                ops.append(Op(
                    name="engine.run_sweep",
                    kind=name,
                    call=partial(run_sweep, spec, cache=None,
                                 backend="numpy"),
                    check=partial(
                        lambda spec, indices, results: check_sweep(
                            results, indices, spec.n_points, evaluate_config,
                        ),
                        spec, indices,
                    ),
                ))
            yield ops


# -- serve_mixed ---------------------------------------------------------

#: The manycore working set: (cores, cores per cluster, node nm).
WORKING_SET = tuple((32, k, n) for n in (22, 32) for k in (1, 2, 4, 8))


class ServerProcess:
    """An evaluation server in a child interpreter (see serve_child.py).

    A separate process keeps the clients' interpreter lock out of the
    server's way, as with a real deployment.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(SUITE_DIR / "serve_child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            cwd=ROOT,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.stop()
            raise RuntimeError("evaluation server failed to start")
        self.port = int(line[1])

    def command(self, line: str) -> None:
        """Send one control line (see serve_child.py) and wait for its
        acknowledgement."""
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().strip()
        if reply != "ok":
            raise RuntimeError(f"evaluation server: {line!r} got {reply!r}")

    def stop(self) -> None:
        """Close the server's stdin (its stop signal) and wait for it."""
        if self.proc.stdin is not None and not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class ServeMixed(Workload):
    """A closed loop of one client against the HTTP evaluation service."""

    name = "serve_mixed"
    shares = SERVE_MIX

    def __init__(self, seed: int,
                 working_set: Sequence[tuple[int, int, int]] = WORKING_SET,
                 presets: Sequence[str] = VALIDATION_PRESETS) -> None:
        rng = seeded(self.name, seed)
        self.seed = seed
        self.working_set = tuple(
            (cores, k, node, round(rng.uniform(1.5e9, 2.5e9), -6))
            for cores, k, node in working_set
        )
        self.presets = tuple(presets)
        self.server: ServerProcess | None = None
        self._next = 0
        self._report_texts: dict[str, set[str]] = {}
        self.processors: dict[str, Any] = {}

    def request(self, index: int) -> tuple:
        """Request ``index`` of the seeded stream: ``("repeat", j)``,
        ``("clock", j, clock_hz)`` or ``("preset", name)``."""
        rng = seeded(self.name, self.seed, str(index))
        draw = rng.random()
        if draw < SERVE_MIX["repeat"]:
            return ("repeat", rng.randrange(len(self.working_set)))
        if draw < SERVE_MIX["repeat"] + SERVE_MIX["clock"]:
            return ("clock", rng.randrange(len(self.working_set)),
                    rng.uniform(1.0e9, 3.0e9))
        return ("preset", rng.choice(self.presets))

    def inputs(self, n_requests: int) -> tuple:
        return self.working_set, tuple(
            self.request(i) for i in range(n_requests)
        )

    def setup(self) -> None:
        from repro.config import presets
        from repro.config.loader import system_config_to_dict
        from repro.serve import ServeClient

        self.payloads = [
            system_config_to_dict(dataclasses.replace(
                presets.manycore_cluster(
                    n_cores=cores, cores_per_cluster=k, node_nm=node,
                ),
                clock_hz=clock_hz,
            ))
            for cores, k, node, clock_hz in self.working_set
        ]
        self.server = ServerProcess()
        client = ServeClient(port=self.server.port)
        self.responses = [
            client.evaluate(config=payload, report=False)
            for payload in self.payloads
        ]

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _call(self, request: tuple) -> dict[str, Any]:
        kind = request[0]
        if kind == "repeat":
            return {"config": self.payloads[request[1]], "report": False}
        if kind == "clock":
            payload = dict(self.payloads[request[1]])
            payload["clock_hz"] = request[2]
            return {"config": payload, "report": False}
        return {"preset": request[1], "report": True}

    def _check(self, request: tuple, response: dict[str, Any]) -> list[str]:
        kind = request[0]
        if kind == "repeat":
            want = self.responses[request[1]]["record"]
            if response.get("record") != want or not response.get(
                    "from_cache"):
                return [f"repeat of working-set config {request[1]} was "
                        f"not the cached record"]
        elif kind == "clock":
            if response.get("from_cache"):
                return [f"new clock point {request[2]:g} Hz hit the cache"]
        else:
            self._report_texts.setdefault(request[1], set()).add(
                response.get("report_text")
            )
        return []

    def _closed_loop(self, measurement: Measurement, seconds: float,
                     traced: bool) -> None:
        """One client sending each request as soon as the previous reply
        arrived, for ``seconds``; records the stretch as one round."""
        from repro import obs
        from repro.serve import ServeClient

        client = ServeClient(port=self.server.port, timeout_s=60.0)
        calls: list[Call] = []
        if traced:
            obs.reset()
            obs.enable(detail=True)
        deadline_s = time.perf_counter() + seconds
        try:
            while (time.perf_counter() < deadline_s
                   or len(calls) < self.min_rounds):
                index = self._next
                self._next += 1
                request = self.request(index)
                kwargs = self._call(request)
                measurement.attempted += 1
                try:
                    start_s = time.perf_counter()
                    with (obs.span(CALL_PREFIX + "serve.ServeClient.evaluate",
                                   category="bench")
                          if traced else contextlib.nullcontext()):
                        response = client.evaluate(**kwargs)
                    latency_s = time.perf_counter() - start_s
                except Exception as exc:  # a failed request is counted
                    measurement.failures.append(
                        f"request {index} {request[0]}: "
                        f"{type(exc).__name__}: {exc}"
                    )
                    continue
                calls.append(Call(request[0], start_s, latency_s))
                problems = self._check(request, response)
                if problems:
                    measurement.failures.append(
                        f"request {index}: {'; '.join(problems)}"
                    )
        finally:
            if traced:
                obs.disable()
                measurement.spans.extend(obs.spans())
        measurement.rounds.append(Round(calls, traced))

    def measure(self, seconds: float, trace: bool) -> Measurement:
        """An untraced run is one closed loop. A trace run alternates
        untraced and traced stretches against the same server, which
        records its own spans only during the traced ones."""
        from repro import obs
        from repro.serve import ServeClient

        measurement = Measurement()
        if not trace:
            self._closed_loop(measurement, seconds, traced=False)
            return measurement
        client = ServeClient(port=self.server.port)
        stretch_s = seconds / (2 * TRACE_PAIRS)
        for _ in range(TRACE_PAIRS):
            self._closed_loop(measurement, stretch_s, False)
            self.server.command("trace on")
            before = client.metrics()["counters"]
            self._closed_loop(measurement, stretch_s, True)
            measurement.add_counters(before, client.metrics()["counters"])
            self.server.command("trace off")
            measurement.overhead_pairs.append(tuple(measurement.rounds[-2:]))
        spans_path = WORK_DIR / f"serve-spans-{os.getpid()}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self.server.command(f"spans {spans_path}")
            measurement.remote_spans = list(obs.read_jsonl(spans_path))
        finally:
            spans_path.unlink(missing_ok=True)
        return measurement

    def _reference_texts(self) -> dict[str, str]:
        from repro.chip import Processor, render_report_text
        from repro.config import presets

        self.processors = {
            name: Processor(presets.VALIDATION_PRESETS[name]())
            for name in self._report_texts
        }
        return {
            name: render_report_text(processor, max_depth=2) + "\n"
            for name, processor in self.processors.items()
        }

    def finish(self) -> tuple[int, list[str]]:
        failures = [
            f"preset {name}: served report text differs from "
            f"render_report_text"
            for name, reference in self._reference_texts().items()
            if self._report_texts[name] != {reference}
        ]
        return len(self._report_texts), failures

    def layer_metrics(self, measurement: Measurement) -> dict[str, float]:
        from repro.chip import render_report_text
        from repro.config.loader import system_config_from_dict
        from repro.engine import EvalCache, EvalRecord, config_key
        from repro.serve.http import encode_json

        configs = [system_config_from_dict(p) for p in self.payloads]
        cache = EvalCache()
        keys = []
        for response in self.responses:
            record = EvalRecord.from_dict(response["record"])
            cache.put(record.key, record)
            keys.append(record.key)
        bodies = [
            {k: v for k, v in response.items() if not k.startswith("_")}
            for response in self.responses
        ]
        client_ms = [c.latency_s * 1e3
                     for c in measurement.calls(traced=True)]
        server_ms = [
            s.duration_s * 1e3 for s in measurement.remote_spans
            if s.name == "serve.request" and s.attrs.get("path") == "/evaluate"
        ]
        processors = list(self.processors.values())
        return {
            "config.from_dict_us": time_calls(
                "config.system_config_from_dict", system_config_from_dict,
                self.payloads) * 1e3,
            "engine.config_key_us": time_calls(
                "engine.config_key", config_key, configs) * 1e3,
            "engine.cache.get_us": time_calls(
                "engine.EvalCache.get", cache.get, keys) * 1e3,
            "serve.encode_json_us": time_calls(
                "serve.http.encode_json", encode_json, bodies) * 1e3,
            "chip.render_report_text_ms": time_calls(
                "chip.render_report_text", render_report_text, processors,
                batches=3) if processors else 0.0,
            "serve.transport_p50_ms": (
                statistics.median(client_ms) - statistics.median(server_ms)
                if client_ms and server_ms else 0.0),
        }


def time_calls(name: str, function: Callable[[Any], Any],
               arguments: Sequence[Any], batches: int = 30) -> float:
    """Median ms per call of ``function`` over ``arguments``, timed by
    one harness span per batch (a span per call would time the span)."""
    from repro import obs

    obs.reset()
    obs.enable()
    try:
        for _ in range(batches):
            with obs.span(CALL_PREFIX + name, category="bench"):
                for argument in arguments:
                    function(argument)
    finally:
        obs.disable()
    return statistics.median(
        s.duration_s * 1e3 / len(arguments) for s in obs.spans()
        if s.name == CALL_PREFIX + name
    )


# -- lint_tree -----------------------------------------------------------


def check_lint(output: str, returncode: int,
               expected_findings: int | None) -> tuple[dict | None,
                                                       list[str]]:
    """Lint JSON must parse, name all four passes, and repeat its
    findings; returns the parsed report and any problems."""
    if returncode not in (0, 1):
        return None, [f"lint exited {returncode}"]
    try:
        report = json.loads(output)
    except json.JSONDecodeError as exc:
        return None, [f"lint output is not JSON: {exc}"]
    problems = []
    if tuple(report.get("passes", ())) != ANALYSIS_PASSES:
        problems.append(f"passes {report.get('passes')} != "
                        f"{list(ANALYSIS_PASSES)}")
    if set(report.get("timings_ms", {})) != set(ANALYSIS_PASSES):
        problems.append("timings_ms does not cover every pass")
    findings = len(report.get("findings", ()))
    if expected_findings is not None and findings != expected_findings:
        problems.append(f"{findings} findings, earlier run had "
                        f"{expected_findings}")
    return report, problems


class LintTree(Workload):
    """``lint --all`` over a pinned copy of the source tree.

    The seed changes nothing here: the corpus is pinned, and so is the
    order its entries are passed in. On the baseline machine the order
    alone moved a lint's time by up to 7 %, through where its garbage
    collections and fixpoint iterations fall.
    """

    name = "lint_tree"
    #: One whole-tree lint takes longer than a run's measured seconds,
    #: but on the baseline machine single lints spread 7 % in reference
    #: units from one to the next, so a run takes the median of two.
    min_rounds = 2
    #: A lint builds and garbage-collects a heap of about 100 MB. Over 24
    #: lints on the baseline machine its time tracked the compute
    #: reference alone to an 18 % spread, the memory walk added to it
    #: to 6 %.
    memory_reference = True

    def __init__(self, seed: int, archive: Path = CORPUS_ARCHIVE,
                 work_dir: Path = WORK_DIR) -> None:
        self.archive = Path(archive)
        self.corpus = Path(work_dir) / "lint-corpus"
        self.reports: list[dict] = []

    def setup(self) -> None:
        """Extract the corpus, then lint one of its modules with the base
        pass, so the CLI is known to work before anything is timed."""
        shutil.rmtree(self.corpus, ignore_errors=True)
        self.corpus.mkdir(parents=True)
        with tarfile.open(self.archive) as archive:
            if hasattr(tarfile, "data_filter"):
                archive.extractall(self.corpus, filter="data")
            else:
                archive.extractall(self.corpus)
        package = self.corpus / "src" / "repro"
        self.paths = sorted(str(path) for path in package.iterdir())
        done = self._lint(["--format", "json",
                           str(sorted(package.glob("*.py"))[0])])
        if done.returncode not in (0, 1):
            raise RuntimeError(f"lint exited {done.returncode} in setup: "
                               f"{done.stderr.strip()[-500:]}")
        json.loads(done.stdout)

    def close(self) -> None:
        shutil.rmtree(self.corpus, ignore_errors=True)

    def _lint(self, arguments: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", *arguments],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        )

    def _lint_all(self) -> subprocess.CompletedProcess:
        # One job: the run is pinned to one CPU, and the passes' own
        # timings stay free of each other's interpreter-lock waits.
        return self._lint(["--all", "--jobs", "1", "--format", "json",
                           *self.paths])

    def _check(self, done: subprocess.CompletedProcess) -> list[str]:
        expected = (len(self.reports[0]["findings"]) if self.reports
                    else None)
        report, problems = check_lint(done.stdout, done.returncode, expected)
        if report is not None:
            self.reports.append(report)
        return problems

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            yield [Op(name="repro.cli.lint", call=self._lint_all,
                      check=self._check)]

    def layer_metrics(self, measurement: Measurement) -> dict[str, float]:
        if not self.reports:
            return {}
        values = {
            f"analysis.{name}_ms": statistics.median(
                r["timings_ms"][name] for r in self.reports
            )
            for name in ANALYSIS_PASSES
        }
        values["analysis.files_checked"] = self.reports[0]["files_checked"]
        values["analysis.findings"] = len(self.reports[0]["findings"])
        return values


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ColdEval, DvfsSweep, ServeMixed, LintTree)
}


def validation_tdp_error_pct() -> float:
    """Mean |TDP error| (%) of the four validation chips against their
    published numbers — the model's accuracy beside every speed number."""
    from repro.experiments.validation import run_validation

    errors = [abs(row.error_fraction) * 100.0 for row in run_validation()
              if row.metric == "power_w"]
    return statistics.fmean(errors)

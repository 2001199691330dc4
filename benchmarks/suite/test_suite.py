"""Self-tests of the benchmark suite.

Run::

    python -m pytest -q benchmarks/suite

Every workload runs here at a tiny size (through constructor
arguments), so the whole file stays well under half a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path
from types import SimpleNamespace

import pytest

SUITE_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE_DIR))

import harness  # noqa: E402

harness.require_src()

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro import batch, obs  # noqa: E402

DEFINITION = harness.load_definition()

needs_numpy = pytest.mark.skipif(
    not batch.have_numpy(), reason="dvfs_sweep needs numpy",
)


def tiny_corpus(tmp_path: Path) -> Path:
    """A one-module lint corpus laid out like the pinned archive."""
    module = tmp_path / "corpus-src" / "src" / "repro" / "tiny.py"
    module.parent.mkdir(parents=True)
    module.write_text("def area_m2(width_m, height_m):\n"
                      "    return width_m * height_m\n")
    archive = tmp_path / "tiny.tar.gz"
    with tarfile.open(archive, "w:gz") as tar:
        tar.add(tmp_path / "corpus-src" / "src", arcname="src")
    return archive


def tiny_sizes(name: str, tmp_path: Path) -> dict:
    return {
        "cold_eval": {"presets": ("niagara1",)},
        "dvfs_sweep": {"presets": ("niagara1",), "n_vdd": 1, "n_clock": 4,
                       "n_temp": 1, "checks_per_sweep": 2},
        "serve_mixed": {"working_set": ((16, 4, 45),),
                        "presets": ("niagara1",)},
        "lint_tree": {"archive": tiny_corpus(tmp_path),
                      "work_dir": tmp_path / "work"},
    }[name]


# -- the definition ------------------------------------------------------


def test_definition_matches_the_workloads():
    assert set(DEFINITION) == {"command", "paths", "run_seconds",
                               "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in DEFINITION["workloads"]] == list(
        workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in DEFINITION["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in DEFINITION["workloads"])


@pytest.mark.parametrize("name,trace", [
    ("cold_eval", 0), ("cold_eval", 1),
    pytest.param("dvfs_sweep", 0, marks=needs_numpy),
    pytest.param("dvfs_sweep", 1, marks=needs_numpy),
    ("serve_mixed", 0), ("serve_mixed", 1),
    # Even a one-module `lint --all` takes seconds, and a traced run
    # needs four; the lint per-layer numbers are tested on their own.
    ("lint_tree", 0),
])
def test_tiny_run_emits_exactly_the_declared_metrics(name, trace, tmp_path):
    result = run.run_one(name, seed=3, seconds=0, trace=bool(trace),
                         definition=DEFINITION, **tiny_sizes(name, tmp_path))
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in DEFINITION[kind]]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


class _Recorded(workloads.Workload):
    """A no-op workload that logs its lifecycle into ``EVENTS``."""

    name = "recorded"
    EVENTS: list[str] = []

    def __init__(self, seed: int) -> None:
        pass

    def setup(self) -> None:
        self.EVENTS.append("setup")

    def close(self) -> None:
        self.EVENTS.append("close")

    def rounds(self):
        while True:
            yield [harness.Op("noop", call=lambda: None, check=lambda _: [])]

    def measure(self, seconds: float, trace: bool):
        self.EVENTS.append("measure")
        return super().measure(seconds, trace)


def test_peak_rss_is_read_after_the_measured_processes_stopped(
        monkeypatch):
    events = _Recorded.EVENTS = []
    monkeypatch.setitem(workloads.WORKLOADS, "recorded", _Recorded)

    def peak_rss_mb():
        events.append("rss")
        return 1.0

    monkeypatch.setattr(harness, "peak_rss_mb", peak_rss_mb)
    run.run_one("recorded", seed=1, seconds=0, trace=False,
                definition=DEFINITION)
    assert events[events.index("measure"):] == ["measure", "close", "rss"]


def test_bare_checkout_fails_without_a_result(tmp_path):
    shutil.copy(harness.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(SUITE_DIR, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         "cold_eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


# -- seeded inputs -------------------------------------------------------


def _inputs(name: str, seed: int):
    cls = workloads.WORKLOADS[name]
    if name == "cold_eval":
        return cls(seed).inputs(5)
    if name == "dvfs_sweep":
        return cls(seed).inputs(4)
    return cls(seed).inputs(60)


@pytest.mark.parametrize("name", [
    "cold_eval",
    pytest.param("dvfs_sweep", marks=needs_numpy),
    "serve_mixed",
])
def test_seed_alone_decides_the_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)
    assert _inputs(name, 7) != _inputs(name, 8)


def test_serve_mix_follows_the_declared_shares():
    kinds = [r[0] for r in workloads.ServeMixed(1).inputs(4000)[1]]
    assert kinds.count("repeat") / len(kinds) == pytest.approx(0.70,
                                                               abs=0.03)
    assert kinds.count("clock") / len(kinds) == pytest.approx(0.25,
                                                              abs=0.03)


# -- correctness checks catch seeded mismatches --------------------------


def test_cold_check_catches_a_perturbed_golden():
    golden = json.loads(
        (workloads.GOLDENS_DIR / "niagara1.json").read_text())["report"]
    assert workloads.check_report("niagara1", golden,
                                  copy.deepcopy(golden)) == []
    perturbed = copy.deepcopy(golden)
    node = perturbed
    while "children" in node and node["children"]:
        node = node["children"][0]
    key = next(k for k, v in node.items() if isinstance(v, float) and v)
    node[key] *= 1 + 1e-12
    assert workloads.check_report("niagara1", perturbed, golden)


def _point(backend: str, tdp_w: float):
    record = SimpleNamespace(backend=backend, tdp_w=tdp_w, **{
        m: 1.0 for m in batch.METRICS if m != "tdp_w"
    })
    return SimpleNamespace(config="cfg", record=record)


def test_sweep_check_catches_drift_and_fallback():
    def scalar(config):
        return _point("scalar", 2.0).record

    good = [_point("numpy", 2.0), _point("numpy", 2.0 * (1 + 1e-12))]
    assert workloads.check_sweep(good, [0, 1], 2, scalar) == []
    drifted = [_point("numpy", 2.0), _point("numpy", 2.0 * (1 + 1e-6))]
    assert workloads.check_sweep(drifted, [1], 2, scalar)
    fallback = [_point("numpy", 2.0), _point("scalar", 2.0)]
    assert workloads.check_sweep(fallback, [], 2, scalar)
    assert workloads.check_sweep(good[:1], [], 2, scalar)


def test_serve_checks_catch_wrong_replies():
    serve = workloads.ServeMixed(1, presets=("niagara1",))
    serve.responses = [{"record": {"tdp_w": 1.0}}]
    cached = {"record": {"tdp_w": 1.0}, "from_cache": True}
    assert serve._check(("repeat", 0), cached) == []
    assert serve._check(("repeat", 0), {**cached, "from_cache": False})
    assert serve._check(("repeat", 0),
                        {**cached, "record": {"tdp_w": 1.5}})
    assert serve._check(("clock", 0, 2e9), cached)
    serve._check(("preset", "niagara1"), {"report_text": "not the report"})
    checks, failures = serve.finish()
    assert checks == 1 and failures


def test_lint_check_catches_missing_passes_and_bad_output():
    report = {"passes": list(workloads.ANALYSIS_PASSES),
              "timings_ms": {p: 1.0 for p in workloads.ANALYSIS_PASSES},
              "findings": []}
    assert workloads.check_lint(json.dumps(report), 0, 0)[1] == []
    partial = {**report, "passes": ["base"]}
    assert workloads.check_lint(json.dumps(partial), 0, None)[1]
    assert workloads.check_lint("not json", 0, None)[1]
    assert workloads.check_lint(json.dumps(report), 2, None)[1]
    assert workloads.check_lint(json.dumps(report), 1, 3)[1]


def test_lint_layer_metrics_come_from_the_reports():
    lint = workloads.LintTree(1)
    lint.reports = [
        {"timings_ms": {p: t for p in workloads.ANALYSIS_PASSES},
         "files_checked": 137, "findings": [{}, {}]}
        for t in (10.0, 30.0, 20.0)
    ]
    layers = lint.layer_metrics(harness.Measurement())
    declared = {m["name"] for m in DEFINITION["per_layer"]}
    assert set(layers) <= declared
    assert layers["analysis.keysound_ms"] == pytest.approx(20.0)
    assert layers["analysis.files_checked"] == 137
    assert layers["analysis.findings"] == 2


# -- helpers on synthetic data -------------------------------------------


def _span(span_id, parent_id, name, duration_s, **attrs):
    return obs.Span(span_id=span_id, parent_id=parent_id, name=name,
                    category="model", start_s=0.0, duration_s=duration_s,
                    pid=1, attrs=attrs)


def test_percentiles_and_quartiles():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.99) == 99
    assert harness.percentile(values, 0.5) == 50
    assert harness.percentile([4.0], 0.99) == pytest.approx(4.0)
    assert harness.quartiles([1, 2, 3, 4, 5, 6, 7]) == (2, 4, 6)
    assert harness.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_self_times_and_nesting_from_synthetic_spans():
    spans = [
        _span(1, None, "call.engine.run_sweep", 1.0),
        _span(2, 1, "engine.run_sweep", 0.9),
        _span(3, 2, "batch.evaluate", 0.6),
        _span(4, 3, "batch.compile_group", 0.5),
        _span(5, 4, "chip.report", 0.2),
        _span(6, 4, "chip.report", 0.1),
        _span(7, 2, "chip.report", 0.05),
        _span(8, 5, "array.build", 0.15),
    ]
    measurement = harness.Measurement(
        rounds=[harness.Round([harness.Call("k", 0.0, 1.0)], traced=True)],
        spans=spans,
        counters={"batch.compile_probes": 6.0,
                  "batch.points_vectorized": 9.0,
                  "batch.points_fallback": 1.0,
                  "memo.build_array.hits": 3.0,
                  "memo.build_array.misses": 1.0},
    )
    layers = harness.span_layer_metrics(measurement)
    assert layers["chip.report.compile_ms"] == pytest.approx(300.0)
    assert layers["batch.compile_group.self_ms"] == pytest.approx(200.0)
    assert layers["batch.evaluate.self_ms"] == pytest.approx(100.0)
    assert layers["engine.run_sweep.self_ms"] == pytest.approx(250.0)
    assert layers["array.build.count"] == 1
    assert layers["chip.components.self_ms"] == pytest.approx(200.0)
    assert layers["batch.compile_probes"] == pytest.approx(6.0)
    assert layers["batch.vectorized_ratio"] == pytest.approx(0.9)
    assert layers["fastpath.build_array.hit_ratio"] == pytest.approx(0.75)
    assert layers["trace.coverage"] == pytest.approx(1.0)


def test_request_latencies_from_synthetic_spans():
    spans = [
        _span(1, None, "serve.request", 0.004, path="/evaluate"),
        _span(2, 1, "engine.evaluate", 0.003),
        _span(3, None, "serve.request", 0.002, path="/evaluate"),
        _span(4, None, "serve.request", 0.050, path="/metrics"),
    ]
    measurement = harness.Measurement(
        rounds=[harness.Round([harness.Call("repeat", 0.0, 0.005)],
                              traced=True)],
        remote_spans=spans)
    layers = harness.span_layer_metrics(measurement)
    assert layers["engine.evaluate.miss_p50_ms"] == pytest.approx(3.0)
    assert layers["serve.request.server_p50_ms"] == pytest.approx(3.0)
    assert layers["serve.request.server_p99_ms"] == pytest.approx(4.0)


def _steps(*levels_ms):
    """Probe samples every 0.1 s: ten seconds at each reference time."""
    return harness.Speed(
        (10.0 * i + 0.1 * k, ms)
        for i, ms in enumerate(levels_ms) for k in range(100)
    )


def test_reference_time_is_taken_around_each_call():
    speed = _steps(1.0, 3.0)
    assert speed.reference_ms(2.0, 2.01) == pytest.approx(1.0)
    assert speed.reference_ms(12.0, 13.0) == pytest.approx(3.0)
    # A lone slow sample among those around a call moves nothing.
    step_s = harness.PROBE_WINDOW_S / 4
    spiked = harness.Speed([(2.0 + k * step_s, 9.0 if k == 0 else 1.0)
                            for k in range(-2, 3)])
    assert spiked.reference_ms(2.0, 2.001) == pytest.approx(1.0)
    # After the last sample, the nearest one stands in.
    assert speed.reference_ms(50.0, 50.001) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        harness.Speed([])


def test_op_time_holds_still_while_the_machine_slows():
    # The machine runs at a third of its speed for the second half;
    # every call takes three times as long there, and reads the same.
    speed = _steps(1.0, 3.0)
    calls = [harness.Call("a", t, 0.010 * slow)
             for t, slow in ((1.0, 1), (2.0, 1), (11.0, 3), (12.0, 3))]
    calls += [harness.Call("b", t, 0.030 * slow)
              for t, slow in ((3.0, 1), (13.0, 3))]
    assert harness.op_time_ref(calls, speed) == pytest.approx(20.0)
    # Kinds are weighted by their declared shares, not by how often a
    # run happened to draw them.
    assert harness.op_time_ref(calls, speed, {"a": 0.75, "b": 0.25}) == (
        pytest.approx(15.0))


def test_setup_time_reads_in_seconds_at_the_nominal_speed():
    # Two seconds of set-up at the nominal speed, and six at a third
    # of it, both read two seconds.
    speed = _steps(1.0, 3.0)
    assert speed.nominal_s(1.0, 3.0) == pytest.approx(2.0)
    assert speed.nominal_s(11.0, 17.0) == pytest.approx(2.0)


def test_probe_samples_and_stops():
    probe = harness.Probe()
    speed = probe.stop()
    assert len(speed.samples) >= 2
    assert all(ms > 0 for _, ms in speed.samples)
    assert probe.proc.returncode == 0


def test_trace_overhead_is_the_median_pair_ratio():
    # The machine slows threefold between the pairs; each pair still
    # reads a 10 % cost in reference units.
    speed = _steps(1.0, 3.0)

    def pair(start_s, slow, traced_cost):
        return (
            harness.Round([harness.Call("a", start_s, 0.010 * slow)], False),
            harness.Round([harness.Call("a", start_s + 0.5,
                                        0.010 * slow * traced_cost)], True),
        )

    measurement = harness.Measurement(overhead_pairs=[
        pair(1.0, 1, 1.1), pair(11.0, 3, 1.1), pair(14.0, 3, 1.5)])
    assert harness.trace_overhead(measurement, speed) == pytest.approx(0.1)
    assert harness.trace_overhead(harness.Measurement(), speed) == 0.0


def test_trace_runs_measure_paired_rounds():
    def rounds():
        while True:
            yield [harness.Op("op", call=lambda: None, check=lambda _: [])]

    measurement = harness.measure(rounds(), seconds=0, min_rounds=1,
                                  trace=True)
    assert len(measurement.overhead_pairs) == harness.TRACE_PAIRS
    assert [r.traced for r in measurement.rounds] == [False, True] * 2


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(parent, [x * 1.05 for x in parent],
                           "lower", 0.1) == "ok"
    assert compare.verdict(parent, [x * 1.2 for x in parent],
                           "lower", 0.1) == "regressed"
    assert compare.verdict(parent, [x / 1.2 for x in parent],
                           "higher", 0.1) == "regressed"
    noisy = [50.0, 100.0, 150.0, 80.0, 120.0]
    assert compare.verdict(parent, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(noisy, [10.0, 11.0, 12.0], "lower",
                           0.1) == "ok"
    setup = [0.03, 0.031, 0.032]
    slower = [0.06, 0.061, 0.062]
    assert compare.verdict(setup, slower, "lower", 0.25) == "regressed"
    assert compare.verdict(setup, slower, "lower", 0.25,
                           compare.FLOORS["setup_s"]) == "ok"
    assert compare.verdict([1.0], [1.5], "lower", 0.25,
                           compare.FLOORS["setup_s"]) == "regressed"


def test_compare_claim_counts_seed_pairs():
    parent = {s: 100.0 + s for s in range(10)}
    faster = {s: 80.0 + s for s in range(10)}
    assert compare.claim_holds(parent, faster, "lower") == (10, 10, True)
    nine = {**faster, 0: 200.0}
    assert compare.claim_holds(parent, nine, "lower") == (9, 10, True)
    eight = {**nine, 1: 200.0}
    assert compare.claim_holds(parent, eight, "lower")[2] is False
    slightly = {s: v - 0.5 for s, v in parent.items()}
    assert compare.claim_holds(parent, slightly, "lower") == (10, 10,
                                                              False)
    with pytest.raises(ValueError):
        compare.claim_holds(parent, {0: 1.0}, "lower")

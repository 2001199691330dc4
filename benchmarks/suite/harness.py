"""Shared machinery of the benchmark suite.

Everything here is workload-agnostic: the speed probes and the
reference units they give, the time-boxed round loop that alternates
traced and untraced rounds, the statistics, the span arithmetic that
turns a :mod:`repro.obs` trace into per-layer numbers, and the assembly
of the one-line JSON result against the metric declarations in
``BENCHMARK.json``.

Timing rules (see README.md): every timed call is divided by the
reference times a speed probe took on the same CPU around it
(``probe.py``), so end-to-end times are in reference units and hold
still while the shared host's speed moves. End-to-end numbers come from
rounds run with tracing off; a ``--trace 1`` run alternates untraced
and traced rounds, takes every per-layer number from the traced ones,
and reports the ratio of each traced round to the untraced round just
before it as ``trace_overhead``.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parents[1]
SRC_DIR = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Scratch space for extracted corpora and server span dumps (gitignored).
WORK_DIR = SUITE_DIR / "_work"

#: Setups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: The speed probe's reference time on the baseline machine while the
#: host is quiet (ms): the compute part alone, and with the memory walk.
#: ``setup_s`` is a setup's wall time scaled by this over the reference
#: time sampled during it, so it reads in seconds at that speed.
NOMINAL_REFERENCE_MS = {False: 1.15, True: 3.0}

#: Untraced/traced round pairs a trace run measures at least, so
#: ``trace_overhead`` is a median of pairs even where a round is long.
TRACE_PAIRS = 2

#: Prefix of the spans the harness itself opens around public calls.
CALL_PREFIX = "call."

#: A call shorter than this is divided by the probe samples of the
#: window this long around its middle, so it has at least one or two.
#: The host's speed moves within a second, so a wider window blurs it:
#: on the baseline machine a 0.25 s window left serve runs spreading
#: half as much again as this one did, and sweeps' 2.5-s stretches
#: 70 % more.
PROBE_WINDOW_S = 0.1


def require_src() -> None:
    """Make the checkout's ``src`` importable, or exit without a result."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        sys.exit(f"benchmark: no repro package under {SRC_DIR}; run from a "
                 f"full checkout")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


def load_definition(path: Path = BENCHMARK_JSON) -> dict[str, Any]:
    """The benchmark definition (workloads and metric declarations)."""
    return json.loads(Path(path).read_text())


def available_cpus() -> list[int]:
    """The CPUs this process may run on, in order."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def pin(cpus: Sequence[int]) -> None:
    """Keep this process, and the children it starts, on ``cpus``."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, set(cpus))


# -- statistics ----------------------------------------------------------


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``q`` in (0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_quantile(n_samples: int) -> float:
    """The highest quantile with at least ten samples beyond it, capped
    at p99 and floored at the median."""
    if n_samples < 1:
        raise ValueError("tail quantile of no samples")
    return min(0.99, max(0.5, 1.0 - 10.0 / n_samples))


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


# -- machine speed -------------------------------------------------------


class Speed:
    """Probe samples over a run: the reference's time around any call."""

    def __init__(self, samples: Iterable[tuple[float, float]],
                 nominal_ms: float = 1.0) -> None:
        self.samples = sorted(samples)
        self.nominal_ms = nominal_ms
        if not self.samples:
            raise ValueError("no speed probe samples")
        self._times = [t for t, _ in self.samples]

    def reference_ms(self, start_s: float, end_s: float) -> float:
        """Median reference time of the samples taken during
        [start_s, end_s], widened to ``PROBE_WINDOW_S`` around its
        middle, or of the nearest sample when none fall inside."""
        middle_s = (start_s + end_s) / 2
        lo = bisect.bisect_left(self._times,
                                min(start_s, middle_s - PROBE_WINDOW_S / 2))
        hi = bisect.bisect_right(self._times,
                                 max(end_s, middle_s + PROBE_WINDOW_S / 2))
        if lo == hi:
            nearest = min(
                (i for i in (lo - 1, lo) if 0 <= i < len(self.samples)),
                key=lambda i: abs(self._times[i] - middle_s),
            )
            lo, hi = nearest, nearest + 1
        return statistics.median(ms for _, ms in self.samples[lo:hi])

    def relative(self, call: "Call") -> float:
        """The call's time in reference units."""
        return call.latency_s * 1e3 / self.reference_ms(
            call.start_s, call.start_s + call.latency_s)

    def nominal_s(self, start_s: float, end_s: float) -> float:
        """The wall time from ``start_s`` to ``end_s`` in seconds at the
        baseline machine's quiet speed (``nominal_ms`` per reference)."""
        return ((end_s - start_s) * self.nominal_ms
                / self.reference_ms(start_s, end_s))

    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.samples)


class Probe:
    """A ``probe.py`` process on the CPU this process is pinned to,
    timing its compute reference, plus its memory walk if ``memory``.

    Started before set-up, so set-up is timed against it too.
    """

    def __init__(self, memory: bool = False) -> None:
        self.nominal_ms = NOMINAL_REFERENCE_MS[memory]
        self.proc = subprocess.Popen(
            [sys.executable, str(SUITE_DIR / "probe.py")]
            + (["--memory"] if memory else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("the speed probe did not start")

    def stop(self) -> Speed:
        """Stop the probe, wait for it, and return its samples."""
        try:  # closes the probe's stdin, its stop signal
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        return Speed(
            ((float(t_s), float(ms))
             for t_s, ms in (line.split() for line in out.splitlines())),
            self.nominal_ms,
        )


# -- the round loop ------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One timed call into a public function of the program.

    Attributes:
        name: The public function, e.g. ``chip.Processor.report``; the
            traced span around the call is ``call.<name>``.
        call: The timed call itself.
        check: Correctness failures of the call's result (untimed).
        kind: Which input the call is on (a preset, a request type);
            end-to-end times are medians per kind.
        prepare: Untimed state reset before the call (cold caches).
        attrs: Annotations for the traced span.
    """

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]
    kind: str = ""
    prepare: Callable[[], None] | None = None
    attrs: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Call:
    """One completed timed call: its kind, when it started, how long it
    took (seconds of ``time.perf_counter``)."""

    kind: str
    start_s: float
    latency_s: float


@dataclass(frozen=True)
class Round:
    """One repetition of a workload's calls, traced or not."""

    calls: list[Call]
    traced: bool

    @property
    def latency_s(self) -> float:
        return sum(c.latency_s for c in self.calls)


@dataclass  # repro: noqa[SPEC001] -- filled in as the run goes
class Measurement:
    """What the timed loop of one run produced.

    Attributes:
        rounds: Every measured round, traced or not, in order.
        attempted: Ops attempted (a failed check fails its op).
        failures: One message per failed op or failed post-run check.
        spans: Spans recorded in this process during traced ops.
        remote_spans: Spans recorded by another process (the server).
        counters: Summed metric-counter deltas over the traced ops.
        overhead_pairs: Adjacent (untraced, traced) rounds of the same
            work, for ``trace_overhead``.
    """

    rounds: list[Round] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    spans: list[Any] = field(default_factory=list)
    remote_spans: list[Any] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    overhead_pairs: list[tuple[Round, Round]] = field(default_factory=list)

    def add_counters(self, before: Mapping[str, float],
                     after: Mapping[str, float]) -> None:
        for name, value in after.items():
            moved = value - before.get(name, 0.0)
            if moved:
                self.counters[name] = self.counters.get(name, 0.0) + moved

    def timed(self, traced: bool) -> list[Round]:
        return [r for r in self.rounds if r.traced == traced]

    def calls(self, traced: bool) -> list[Call]:
        return [c for r in self.timed(traced) for c in r.calls]


class Tracing:
    """Turns :mod:`repro.obs` on around one traced call.

    Spans are reset before each call so every call's trace is its own,
    and the metrics snapshot (memo and batch counters included) is read
    on both sides of the call so only its own work is counted.
    """

    def __init__(self, measurement: Measurement) -> None:
        from repro import obs

        self.obs = obs
        self.measurement = measurement
        self._before: dict[str, float] = {}

    def __enter__(self) -> "Tracing":
        self.obs.reset()
        self.obs.enable(detail=True)
        self._before = self.obs.snapshot().counters
        return self

    def __exit__(self, *exc: object) -> None:
        after = self.obs.snapshot().counters
        self.obs.disable()
        self.measurement.add_counters(self._before, after)
        self.measurement.spans.extend(self.obs.spans())


def run_op(op: Op, traced: bool, measurement: Measurement) -> Call | None:
    """Run one op (prepare, timed call, check); None if the call raised."""
    from repro import obs

    if op.prepare is not None:
        op.prepare()
    measurement.attempted += 1
    try:
        if traced:
            with Tracing(measurement):
                start_s = time.perf_counter()
                with obs.span(CALL_PREFIX + op.name, category="bench",
                              **op.attrs):
                    result = op.call()
                latency_s = time.perf_counter() - start_s
        else:
            start_s = time.perf_counter()
            result = op.call()
            latency_s = time.perf_counter() - start_s
    except Exception as exc:  # a failed call is a counted failure
        measurement.failures.append(
            f"{op.name}: {type(exc).__name__}: {exc}"
        )
        return None
    problems = op.check(result)
    if problems:
        measurement.failures.append(f"{op.name}: {'; '.join(problems)}")
    return Call(op.kind or op.name, start_s, latency_s)


def measure(
    rounds: Iterator[list[Op]],
    seconds: float,
    min_rounds: int,
    trace: bool,
) -> Measurement:
    """Run rounds until ``seconds`` have passed (and ``min_rounds`` ran).

    In a trace run rounds alternate untraced/traced, so both halves see
    the same machine state and the same mix of inputs, and at least
    ``TRACE_PAIRS`` pairs run.
    """
    if trace:
        min_rounds = max(min_rounds, 2 * TRACE_PAIRS)
    measurement = Measurement()
    previous: Round | None = None
    start_s = time.perf_counter()
    for number, ops in enumerate(rounds):
        if (number >= min_rounds
                and time.perf_counter() - start_s >= seconds):
            break
        traced = trace and number % 2 == 1
        calls = [run_op(op, traced, measurement) for op in ops]
        if None in calls:
            previous = None
            continue
        current = Round(calls, traced)
        measurement.rounds.append(current)
        if traced and previous is not None:
            measurement.overhead_pairs.append((previous, current))
        previous = current
    return measurement


# -- span arithmetic -----------------------------------------------------


def self_ms(profile: Mapping[str, Any], name: str) -> float:
    """Summed self time of spans called ``name`` (ms)."""
    entry = profile.get(name)
    return entry.self_s * 1e3 if entry is not None else 0.0


def total_ms_under(spans: Iterable[Any], name: str, ancestor: str) -> float:
    """Summed duration of ``name`` spans nested anywhere under an
    ``ancestor`` span (ms)."""
    spans = list(spans)
    by_id = {s.span_id: s for s in spans}
    total_s = 0.0
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent_id)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent_id)
        if parent is not None:
            total_s += s.duration_s
    return total_s * 1e3


def durations_ms(spans: Iterable[Any], name: str,
                 **attrs: Any) -> list[float]:
    """Durations (ms) of ``name`` spans whose attrs match ``attrs``."""
    return [
        s.duration_s * 1e3 for s in spans
        if s.name == name
        and all(s.attrs.get(k) == v for k, v in attrs.items())
    ]


def memo_hit_ratio(counters: Mapping[str, float], memo: str) -> float:
    hits = counters.get(f"memo.{memo}.hits", 0.0)
    return ratio(hits, hits + counters.get(f"memo.{memo}.misses", 0.0))


def span_layer_metrics(measurement: Measurement) -> dict[str, float]:
    """Per-layer numbers every workload derives from its traced spans
    and counters, normalized per traced public call."""
    from repro import obs

    spans = measurement.spans + measurement.remote_spans
    profile = obs.profile(spans)
    traced = measurement.calls(traced=True)
    traced_s = sum(c.latency_s for c in traced)
    counters = measurement.counters

    def per_call(value: float) -> float:
        return ratio(value, len(traced))

    build = profile.get("array.build")
    call_spans = [s for s in measurement.spans
                  if s.name.startswith(CALL_PREFIX)]
    evaluate_ms = durations_ms(spans, "engine.evaluate")
    server_ms = durations_ms(spans, "serve.request", path="/evaluate")
    vectorized = counters.get("batch.points_vectorized", 0.0)
    return {
        "array.build.self_ms": per_call(self_ms(profile, "array.build")),
        "array.build.count": per_call(build.count if build else 0),
        "circuit.logical_effort.self_ms": per_call(
            self_ms(profile, "circuit.logical_effort.solve")),
        "circuit.repeater.self_ms": per_call(
            self_ms(profile, "circuit.repeater.solve")),
        "chip.components.self_ms": per_call(sum(
            self_ms(profile, name) for name in profile
            if name.startswith("chip."))),
        "fastpath.build_array.hit_ratio":
            memo_hit_ratio(counters, "build_array"),
        "fastpath.gate_constants.hit_ratio":
            memo_hit_ratio(counters, "gate_constants"),
        "fastpath.repeater_optimum.hit_ratio":
            memo_hit_ratio(counters, "repeater_optimum"),
        "batch.compile_group.self_ms": per_call(
            self_ms(profile, "batch.compile_group")),
        "batch.evaluate.self_ms": per_call(
            self_ms(profile, "batch.evaluate")),
        "engine.run_sweep.self_ms": per_call(
            self_ms(profile, "engine.run_sweep")),
        "chip.report.compile_ms": per_call(total_ms_under(
            spans, "chip.report", "batch.compile_group")),
        "batch.compile_probes": per_call(
            counters.get("batch.compile_probes", 0.0)),
        "batch.vectorized_ratio": ratio(
            vectorized,
            vectorized + counters.get("batch.points_fallback", 0.0)),
        "engine.evaluate.self_ms": per_call(
            self_ms(profile, "engine.evaluate")),
        "engine.evaluate.miss_p50_ms": (
            statistics.median(evaluate_ms) if evaluate_ms else 0.0),
        "engine.cache.hit_ratio": ratio(
            counters.get("engine.cache.hits", 0.0),
            counters.get("engine.cache.hits", 0.0)
            + counters.get("engine.cache.misses", 0.0)),
        "serve.request.server_p50_ms": (
            statistics.median(server_ms) if server_ms else 0.0),
        "serve.request.server_p99_ms": (
            percentile(server_ms, 0.99) if server_ms else 0.0),
        "serve.rejected": (
            counters.get("serve.responses.503", 0.0)
            + counters.get("serve.responses.504", 0.0)),
        "trace.coverage": ratio(
            sum(s.duration_s for s in call_spans), traced_s),
    }


# -- the result line -----------------------------------------------------


def op_time_ref(calls: Sequence[Call], speed: Speed,
                shares: Mapping[str, float] | None = None) -> float:
    """Time per call in reference units: the median of each kind's
    calls, averaged over the kinds with weights ``shares`` (equal when
    None), so the mix of kinds a run happened to draw does not move it."""
    by_kind: dict[str, list[float]] = defaultdict(list)
    for call in calls:
        by_kind[call.kind].append(speed.relative(call))
    weights = {k: (shares[k] if shares else 1.0) for k in by_kind}
    return sum(
        weights[k] * statistics.median(v) for k, v in by_kind.items()
    ) / sum(weights.values())


def end_to_end_metrics(
    measurement: Measurement, setups: list[tuple[float, float]],
    rss_mb: float, speed: Speed,
    shares: Mapping[str, float] | None = None,
) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end values and the sample count behind each; ``setups``
    holds the (start, end) of each setup."""
    calls = measurement.calls(traced=False)
    if not calls:
        raise RuntimeError("no untraced call completed")
    values = {
        "setup_s": statistics.median(speed.nominal_s(*s) for s in setups),
        "peak_rss_mb": rss_mb,
        "op_time_ref": op_time_ref(calls, speed, shares),
    }
    samples = {"setup_s": len(setups), "peak_rss_mb": 1,
               "op_time_ref": len(calls)}
    return values, samples


def wall_summary(measurement: Measurement, speed: Speed) -> str:
    """Plain wall-clock times of the untraced calls, for the reader:
    they move with the host's speed, so no bound applies to them."""
    latencies_ms = [c.latency_s * 1e3 for c in measurement.calls(False)]
    q = tail_quantile(len(latencies_ms))
    return (f"wall clock: p50 {statistics.median(latencies_ms):.4g} ms, "
            f"p{100 * q:.4g} {percentile(latencies_ms, q):.4g} ms over "
            f"{len(latencies_ms)} calls; reference {speed.median_ms():.4g} "
            f"ms over {len(speed.samples)} samples")


def trace_overhead(measurement: Measurement, speed: Speed,
                   shares: Mapping[str, float] | None = None) -> float:
    """Median over adjacent (untraced, traced) round pairs of the traced
    round's ``op_time_ref`` over the untraced one's, minus one."""
    if not measurement.overhead_pairs:
        return 0.0
    return statistics.median(
        op_time_ref(traced.calls, speed, shares)
        / op_time_ref(untraced.calls, speed, shares)
        for untraced, traced in measurement.overhead_pairs
    ) - 1.0


def result_line(
    declared: list[Mapping[str, str]],
    values: Mapping[str, float],
    attempted: int,
    failed: int,
) -> dict[str, Any]:
    """The final JSON object: exactly the declared metrics, in order."""
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    extra = sorted(set(values) - set(names))
    if missing or extra:
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}"
        )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }

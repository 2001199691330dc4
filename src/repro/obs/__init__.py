"""Observability for the evaluation stack: tracing, metrics, profiling.

``repro.obs`` makes the runtime behavior of the model visible — where a
slow evaluation spends its time, how effective each cache layer is, and
what the worker pool is doing — without perturbing a single reported
number and at near-zero cost while switched off (the default).

Three pieces:

* :mod:`repro.obs.runtime` — the single on/off flag every
  instrumentation site guards itself with.
* :mod:`repro.obs.trace` — hierarchical spans (context manager +
  decorator), exportable as JSONL or a Chrome ``trace_event`` file, and
  aggregatable into per-component profiles.
* :mod:`repro.obs.metrics` — counters/gauges/histograms with a snapshot
  API, fed both push-side (engine pool/cache events) and pull-side
  (fast-path memo collectors).

Typical use::

    from repro import obs
    from repro.engine import EvalCache, evaluate_many, metrics_snapshot

    cache = EvalCache()
    obs.enable()
    records = evaluate_many(configs, jobs=4, cache=cache)
    print(obs.format_metrics_table(metrics_snapshot(cache)))
    obs.write_chrome_trace("trace.json")

Instrumentation survives the engine's fork pool: workers accumulate
spans and metrics locally and the parent merges them at join.
"""

from __future__ import annotations

from repro.obs import runtime
from repro.obs.metrics import (
    MetricsSnapshot,
    Timer,
    absorb,
    counter_add,
    export_state,
    format_metrics_table,
    gauge_set,
    observe,
    register_collector,
    snapshot,
    timer,
)
from repro.obs.runtime import active, detail, disable, enable
from repro.obs.trace import (
    ProfileEntry,
    Span,
    attach,
    current_span_id,
    format_profile,
    merge,
    profile,
    read_jsonl,
    root_total_s,
    span,
    spans,
    traced,
    write_chrome_trace,
    write_jsonl,
)


def reset() -> None:
    """Drop all recorded spans and metric values (flags untouched)."""
    from repro.obs import metrics as _metrics
    from repro.obs import trace as _trace

    _trace.reset()
    _metrics.reset()


__all__ = [
    "MetricsSnapshot",
    "ProfileEntry",
    "Span",
    "Timer",
    "absorb",
    "active",
    "attach",
    "counter_add",
    "current_span_id",
    "detail",
    "disable",
    "enable",
    "export_state",
    "format_metrics_table",
    "format_profile",
    "gauge_set",
    "merge",
    "observe",
    "profile",
    "read_jsonl",
    "register_collector",
    "reset",
    "root_total_s",
    "runtime",
    "snapshot",
    "span",
    "spans",
    "timer",
    "traced",
    "write_chrome_trace",
    "write_jsonl",
]

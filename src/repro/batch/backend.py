"""Backend selection and group orchestration for batch evaluation.

The engine asks this module two questions: which backend a request
resolves to (:func:`resolve_backend` — ``numpy`` silently degrades to
``scalar`` when the optional extra is missing), and what a batch of
pending ``(key, config)`` points evaluates to (:func:`evaluate_batch`).

:func:`evaluate_batch` partitions the points by *structure key* — the
content hash of everything except ``clock_hz`` and ``temperature_k`` —
compiles each group once (:func:`repro.batch.compile.compile_group`),
and evaluates the group's frequency/temperature axis as numpy arrays.
Points the backend cannot (or should not) vectorize come back as
leftovers for the exact scalar path: groups too small to amortize a
compile, groups whose validation probes fail, and anything with a
workload attached (runtime simulation is per-point by nature).

Module-level counters mirror the :mod:`repro.fastpath` idiom: they are
registered as a pull-side metrics collector, so ``GET /metrics`` and
``sweep --profile`` report how many points vectorized, how many fell
back, and what the compile amortization looked like.
"""

from __future__ import annotations

from typing import Sequence

from repro import fastpath, obs
from repro.batch._numpy import get_numpy, have_numpy
from repro.batch.compile import (
    BatchFallback,
    compile_group,
)
from repro.config.loader import system_config_to_dict
from repro.config.schema import SystemConfig
from repro.engine.record import METRICS, EvalRecord
from repro.obs import metrics as _obs_metrics

#: Backend names accepted by ``resolve_backend`` (besides ``auto``).
BACKENDS = ("scalar", "numpy")

#: Top-level config fields a compiled group evaluates in closed form;
#: everything else defines the group's structure.
GROUP_AXES = ("clock_hz", "temperature_k")

#: A group must have this many points, and twice as many points as
#: distinct temperatures, before compiling beats the per-point loop
#: (compile costs ~1 construction per temperature plus a handful of
#: report probes; a scalar point costs a construction each).
_MIN_GROUP_POINTS = 4
_MIN_POINTS_PER_TEMPERATURE = 2

_COUNTER_NAMES = (
    "groups_compiled",
    "groups_fallback",
    "points_vectorized",
    "points_fallback",
    "compile_probes",
    "numpy_unavailable",
)

_counters: dict[str, float] = {name: 0.0 for name in _COUNTER_NAMES}

#: Compiled groups memoized across chunks and sweeps, keyed by the
#: *content* hash of the structure plus the exact frequency/temperature
#: sets — a compile is a pure function of those, so re-running a grid
#: (or the next chunk of one) costs zero probes. Fallback verdicts are
#: memoized too, so a group that failed validation is not re-probed on
#: every chunk. Honors ``fastpath.disabled()`` like every other memo.
_COMPILED_GROUPS = fastpath.Memo("batch.compiled_groups", max_entries=64)


def counters() -> dict[str, float]:
    """A snapshot of the backend counters (benchmarks, tests)."""
    return dict(_counters)


def reset_counters() -> None:
    """Zero the backend counters (cold-start state for benchmarks)."""
    for name in _COUNTER_NAMES:
        _counters[name] = 0.0


def _obs_collect() -> dict[str, float]:
    return {f"batch.{name}": value for name, value in _counters.items()}


_obs_metrics.register_collector("batch.backend", _obs_collect)


def resolve_backend(backend: str | None) -> str:
    """Normalize a backend request to ``"scalar"`` or ``"numpy"``.

    ``None`` means the caller did not opt in: the exact scalar path.
    ``"auto"`` picks numpy when available. An explicit ``"numpy"`` on an
    installation without the extra degrades to scalar (counted in
    ``batch.numpy_unavailable``) rather than failing — results are
    identical, only slower.

    Raises:
        ValueError: On an unknown backend name.
    """
    if backend is None or backend == "scalar":
        return "scalar"
    if backend == "auto":
        return "numpy" if have_numpy() else "scalar"
    if backend == "numpy":
        if have_numpy():
            return "numpy"
        _counters["numpy_unavailable"] += 1
        return "scalar"
    raise ValueError(
        f"unknown backend {backend!r} "
        f"(choices: auto, {', '.join(BACKENDS)})"
    )


def structure_key(config: SystemConfig) -> str:
    """Content hash of the config minus the batch-evaluable axes."""
    payload = system_config_to_dict(config)
    for axis in GROUP_AXES:
        payload.pop(axis, None)
    return fastpath.stable_hash(payload)


def _worth_compiling(n_points: int, n_temperatures: int) -> bool:
    return (
        n_points >= _MIN_GROUP_POINTS
        and n_points >= _MIN_POINTS_PER_TEMPERATURE * n_temperatures
    )


def evaluate_batch(
    items: Sequence[tuple[str, SystemConfig]],
    group_keys: Sequence[str] | None = None,
) -> tuple[dict[str, EvalRecord], list[tuple[str, SystemConfig]]]:
    """Vectorize what can be vectorized; return the rest as leftovers.

    Args:
        items: Pending ``(cache key, config)`` points (already deduped
            and cache-missed by the engine).
        group_keys: Optional precomputed :func:`structure_key` per item —
            the sweep runner derives them from its axis values for free;
            generic callers let this function hash each config.

    Returns:
        ``(records, leftovers)``: records keyed by cache key for every
        vectorized point (``backend="numpy"``, ``from_cache=False``),
        and the items the scalar path must still evaluate.
    """
    np = get_numpy()
    if np is None or not items:
        return {}, list(items)
    if group_keys is not None and len(group_keys) != len(items):
        raise ValueError(
            f"got {len(group_keys)} group keys for {len(items)} items"
        )

    groups: dict[str, list[int]] = {}
    for i, (_, config) in enumerate(items):
        gkey = (
            group_keys[i] if group_keys is not None
            else structure_key(config)
        )
        groups.setdefault(gkey, []).append(i)

    records: dict[str, EvalRecord] = {}
    leftovers: list[tuple[str, SystemConfig]] = []
    with obs.span(
        "batch.evaluate", category="batch",
        points=len(items), groups=len(groups),
    ):
        for indices in groups.values():
            group_items = [items[i] for i in indices]
            points = [
                (config.clock_hz, config.temperature_k)
                for _, config in group_items
            ]
            temperatures = sorted({t for _, t in points})
            if not _worth_compiling(len(points), len(temperatures)):
                _counters["points_fallback"] += len(points)
                leftovers.extend(group_items)
                continue
            frequencies = sorted({f for f, _ in points})
            representative = group_items[0][1]
            memo_key = (
                structure_key(representative),
                tuple(frequencies),
                tuple(temperatures),
            )

            def _compile() -> object:
                try:
                    compiled = compile_group(
                        representative, frequencies, temperatures,
                    )
                except BatchFallback as fallback:
                    return fallback
                _counters["groups_compiled"] += 1
                _counters["compile_probes"] += compiled.n_probes
                return compiled

            compiled = _COMPILED_GROUPS.get_or_compute(memo_key, _compile)
            if isinstance(compiled, BatchFallback):
                _counters["groups_fallback"] += 1
                _counters["points_fallback"] += len(points)
                leftovers.extend(group_items)
                continue
            _counters["points_vectorized"] += len(points)
            arrays = compiled.evaluate(points, np)
            columns = [arrays[name].tolist() for name in METRICS]
            for (key, _), values in zip(group_items, zip(*columns)):
                records[key] = EvalRecord(
                    compiled.name, key, *values, backend="numpy",
                )
    return records, leftovers

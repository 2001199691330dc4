"""Batch evaluation engine: parallel, content-hash-cached chip modeling.

McPAT's headline use case is sweeping hundreds-to-thousands of candidate
architectures through the integrated power/area/timing model. This
package is the single entry point for evaluating *many* configurations:

* :func:`evaluate_many` — evaluate a batch of
  :class:`~repro.config.schema.SystemConfig` candidates, fanned out over
  worker processes and deduplicated through a content-hash cache.
* :class:`~repro.engine.cache.EvalCache` — in-memory LRU with an
  optional on-disk JSONL log, keyed by
  :func:`~repro.engine.cache.config_key`; the log is the one persisted
  result store.
* :class:`~repro.engine.sweep.SweepSpec` / :func:`~repro.engine.sweep.run_sweep`
  — declarative parameter grids, resumable from a file-backed cache.

Example::

    from repro import presets
    from repro.engine import evaluate_many

    configs = [presets.manycore_cluster(n_cores=n) for n in (16, 32, 64)]
    records = evaluate_many(configs, jobs=4)
    for record in records:
        print(record.name, record.tdp_w, record.area_mm2)

Results are bitwise-identical to a serial loop regardless of ``jobs``,
and repeated or overlapping batches are served from the cache.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro import obs
from repro.config.loader import ChipKey
from repro.config.schema import SystemConfig
from repro.engine.cache import (
    CACHE_CAPACITY,
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE,
    EvalCache,
    config_key,
    config_keys,
)
from repro.engine.pool import (
    default_jobs,
    evaluate_payloads,
    fork_available,
)
from repro.engine.record import EvalRecord, evaluate_config
from repro.engine.sweep import (
    SweepAxis,
    SweepPoint,
    SweepPointResult,
    SweepSpec,
    format_sweep_table,
    run_sweep,
)
from repro.perf.workload import Workload


def metrics_snapshot(
    cache: EvalCache | None = None,
) -> "obs.MetricsSnapshot":
    """Current engine observability state as a metrics snapshot.

    Combines the process-wide registry (pool counters, merged worker
    deltas), the fast-path memo collectors, and — when given — the
    counters of one :class:`EvalCache`.
    """
    return obs.snapshot(
        extra_counters=cache.counters() if cache is not None else None,
    )


def evaluate_many(
    configs: Sequence[SystemConfig] | Iterable[SystemConfig],
    workload: Workload | None = None,
    jobs: int = 1,
    cache: EvalCache | None = DEFAULT_CACHE,
    backend: str | None = None,
) -> list[EvalRecord]:
    """Evaluate many configurations through the cache and worker pool.

    Each config is encoded once, for both its cache and chip keys.

    Args:
        configs: Candidate configurations.
        workload: Optional workload for runtime metrics.
        jobs: Worker processes (``1`` = serial, in-process).
        cache: Result cache. Defaults to the process-wide shared cache;
            pass ``None`` to force fresh evaluation.
        backend: ``None``/``"scalar"`` (default) evaluates every point
            on the exact per-point path; ``"numpy"`` (or ``"auto"``)
            routes TDP-only points through the vectorized batch backend
            (:mod:`repro.batch`), which groups them by built chip (the
            chip key, every field but ``clock_hz``) and evaluates each
            chip's clocks as array math — within 1e-9 relative of
            scalar. Points the backend cannot vectorize (workload runs,
            tiny groups, validation fallbacks) transparently use the
            scalar path. Cache accounting is identical either way:
            every point is looked up and stored per key.

    Returns:
        One :class:`EvalRecord` per config, in input order. Records for
        configs already cached (or repeated within the batch) are
        computed once; ``record.from_cache`` tells which and
        ``record.backend`` tells how. :func:`metrics_snapshot` reports
        the evaluation stack's counters afterwards.

    Raises:
        ValueError: If ``configs`` is empty, an unknown backend is
            named, or a config holds a value that cannot be
            content-hashed (the message names the offending field path).
    """
    from repro import batch

    configs = list(configs)
    if not configs:
        raise ValueError("need at least one configuration to evaluate")
    resolved_backend = batch.resolve_backend(backend)

    # One key object per distinct chip, not one per config.
    chips: dict[ChipKey, ChipKey] = {}
    pairs = []
    for config in configs:
        key, chip = config_keys(config, workload)
        pairs.append((key, chips.setdefault(chip, chip)))
    records: dict[str, EvalRecord] = {}

    # Serve cache hits, and deduplicate repeats within the batch.
    to_compute: list[tuple[str, ChipKey, SystemConfig]] = []
    seen: set[str] = set()
    for (key, chip), config in zip(pairs, configs):
        if key in seen:
            continue
        seen.add(key)
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            records[key] = hit
        else:
            to_compute.append((key, chip, config))

    computed: dict[str, EvalRecord] = {}
    if to_compute and resolved_backend == "numpy" and workload is None:
        computed, to_compute = batch.evaluate_batch(to_compute)
    if to_compute:
        fresh = evaluate_payloads(
            [(key, config, workload) for key, _, config in to_compute],
            jobs=jobs,
        )
        computed.update(zip((key for key, _, _ in to_compute), fresh))
    for key, record in computed.items():
        records[key] = record
        if cache is not None:
            cache.put(key, record)

    return [records[key] for key, _ in pairs]


__all__ = [
    "CACHE_CAPACITY",
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE",
    "EvalCache",
    "EvalRecord",
    "SweepAxis",
    "SweepPoint",
    "SweepPointResult",
    "SweepSpec",
    "config_key",
    "config_keys",
    "default_jobs",
    "evaluate_config",
    "evaluate_many",
    "evaluate_payloads",
    "fork_available",
    "format_sweep_table",
    "metrics_snapshot",
    "run_sweep",
]

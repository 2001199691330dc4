"""Declarative parameter sweeps, resumable from the result-cache log.

A :class:`SweepSpec` names parameter axes over a base
:class:`~repro.config.schema.SystemConfig`; the cross product of the
axis values defines the candidate grid. Axes address config fields by
name or dotted path (``core.issue_width``), with short aliases for the
common sweep dimensions (``cores``, ``tech_nm``).

:func:`run_sweep` evaluates the grid through the batch engine and its
result cache. Given a file-backed :class:`~repro.engine.cache.EvalCache`,
every finished point is appended to the cache's JSONL log as it lands;
re-running with the same log resumes with exactly the unevaluated
remainder.

The grid is streamed, never materialized: :meth:`SweepSpec.iter_points`
builds one config at a time (copy-on-write along the axis paths instead
of a deep copy per point), so a 100k-point grid holds one chunk of
pending work in memory, not 100k config dicts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro import obs
from repro.config.loader import (
    replace_system_config,
    system_config_from_dict,
    system_config_to_dict,
)
from repro.config.schema import SystemConfig
from repro.engine.cache import DEFAULT_CACHE, EvalCache
from repro.engine.record import EvalRecord
from repro.perf.workload import Workload

#: Short axis names for the usual sweep dimensions.
AXIS_ALIASES = {
    "cores": "n_cores",
    "tech_nm": "node_nm",
    "node": "node_nm",
}

#: Points per ``evaluate_many`` call on the scalar path. A chunk's
#: records reach the cache log when the chunk finishes, so this bounds
#: the work an interrupt can lose.
_SCALAR_CHUNK_POINTS = 16

#: Points per ``evaluate_many`` call under the numpy backend: a compiled
#: group is amortized over the points of one chunk, so batch chunks are
#: large. Both sizes are efficiency knobs only — results and resume
#: semantics are chunk-size independent.
_BATCH_CHUNK_POINTS = 1024


def _resolve_path(base_dict: dict[str, Any], name: str) -> str:
    """Resolve an axis name to a dotted config path, validating it."""
    path = AXIS_ALIASES.get(name, name)
    node: Any = base_dict
    parts = path.split(".")
    for i, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            where = ".".join(parts[:i]) or "the config root"
            options = (
                ", ".join(sorted(node)) if isinstance(node, dict)
                else "no sub-fields"
            )
            raise ValueError(
                f"unknown sweep axis {name!r}: {part!r} not found under "
                f"{where} (available: {options})"
            )
        node = node[part]
    return path


def _overlay(
    base_dict: dict[str, Any],
    paths: Sequence[Sequence[str]],
    values: Sequence[Any],
) -> dict[str, Any]:
    """Set axis values into a copy-on-write overlay of ``base_dict``.

    Only the dicts along the written paths are copied; untouched
    subtrees are shared with ``base_dict`` (they are read-only
    downstream). This replaces the per-point deep copy that dominated
    grid construction time.
    """
    out = dict(base_dict)
    copied: dict[int, dict[str, Any]] = {id(base_dict): out}
    for parts, value in zip(paths, values):
        node = out
        for part in parts[:-1]:
            child = node[part]
            fresh = copied.get(id(child))
            if fresh is None:
                fresh = dict(child)
                copied[id(child)] = fresh
                copied[id(fresh)] = fresh
            node[part] = fresh
            node = fresh
        node[parts[-1]] = value
    return out


@dataclass(frozen=True)
class SweepAxis:
    """One named parameter axis.

    Attributes:
        name: Axis name as given (possibly an alias).
        path: Resolved dotted path into the config.
        values: The values swept, in order.
    """

    name: str
    path: str
    values: tuple[Any, ...]


@dataclass(frozen=True)
class SweepPoint:
    """One candidate of the grid: its axis settings and built config."""

    overrides: dict[str, Any]
    config: SystemConfig


@dataclass(frozen=True)
class SweepPointResult:
    """One evaluated grid point."""

    overrides: dict[str, Any]
    config: SystemConfig
    record: EvalRecord


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: named axes crossed over a base config."""

    base: SystemConfig
    axes: tuple[SweepAxis, ...]

    @classmethod
    def from_axes(
        cls,
        base: SystemConfig,
        axes: Mapping[str, Iterable[Any]],
    ) -> "SweepSpec":
        """Build a spec from ``{axis name: values}``.

        ``values`` may be any iterable, a numpy array included.

        Raises:
            ValueError: On an unknown axis name/path, an empty axis, or
                two axes naming the same config field.
        """
        base_dict = system_config_to_dict(base)
        resolved: list[SweepAxis] = []
        for name, axis_values in axes.items():
            values = tuple(axis_values)
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            path = _resolve_path(base_dict, name)
            for other in resolved:
                if other.path == path:
                    raise ValueError(
                        f"axes {other.name!r} and {name!r} both set "
                        f"config field {path!r}"
                    )
            resolved.append(SweepAxis(name=name, path=path, values=values))
        if not resolved:
            raise ValueError("a sweep needs at least one axis")
        return cls(base=base, axes=tuple(resolved))

    @property
    def n_points(self) -> int:
        """Grid size (product of axis lengths)."""
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def iter_points(self) -> Iterator[SweepPoint]:
        """Stream the cross product lazily, last axis varying fastest.

        Each point is built on demand — the grid is never materialized,
        so arbitrarily large sweeps use constant memory here. When every
        axis is a top-level scalar field (the common
        frequency/voltage/temperature sweeps), one template config is
        built from the first point and every other point is a
        ``dataclasses.replace`` of it
        (:func:`~repro.config.loader.replace_system_config`, whose
        errors read as the loader's): the frozen sub-configs, and the
        canonical text they keep for cache keys, are shared; only the
        top-level dataclass (and its validators) is rebuilt. The
        shortcut only fires when each axis value has exactly the class
        of the field's built value (``from_dict`` converts enum-typed
        fields and type-checks every value, which ``replace`` must not
        skip: a bool is an ``int`` subclass); nested axes and
        type-changing values take the general dict-overlay path.
        """
        base_dict = system_config_to_dict(self.base)
        paths = [axis.path.split(".") for axis in self.axes]
        names = [axis.name for axis in self.axes]
        flat = all(
            len(parts) == 1 and not isinstance(base_dict[parts[0]], dict)
            for parts in paths
        )
        # Set once a flat grid has its template config.
        field_types: tuple[type, ...] | None = None
        template_config = self.base
        for combo in itertools.product(*(a.values for a in self.axes)):
            if field_types is not None and all(
                value.__class__ is kind
                for value, kind in zip(combo, field_types)
            ):
                config = replace_system_config(
                    template_config,
                    **{parts[0]: value
                       for parts, value in zip(paths, combo)},
                )
            else:
                config_dict = _overlay(base_dict, paths, combo)
                config = system_config_from_dict(config_dict)
                template_config = config
                if flat:
                    field_types = tuple(
                        type(getattr(config, parts[0]))
                        for parts in paths
                    )
            yield SweepPoint(overrides=dict(zip(names, combo)), config=config)


def run_sweep(
    spec: SweepSpec,
    workload: Workload | None = None,
    jobs: int = 1,
    cache: EvalCache | None = DEFAULT_CACHE,
    backend: str | None = None,
) -> list[SweepPointResult]:
    """Evaluate a sweep grid through the result cache.

    Args:
        spec: The sweep definition.
        workload: Optional workload for runtime metrics.
        jobs: Worker processes for the evaluation engine.
        cache: Result cache (defaults to the engine's shared cache; pass
            ``None`` to force re-evaluation). A file-backed cache makes
            the sweep resumable: points its log holds come back
            ``from_cache=True``, only the rest are evaluated, and each
            new record is appended to the log as it lands.
        backend: Evaluation backend, per
            :func:`repro.engine.evaluate_many`: ``None``/``"scalar"``
            (exact, default), ``"numpy"``, or ``"auto"``. Frequency and
            temperature axes vectorize; axes that change chip structure
            partition the grid into groups evaluated one compile each.

    Returns:
        One result per grid point, in grid order.
    """
    from repro import batch as _batch
    from repro.engine import evaluate_many

    resolved = _batch.resolve_backend(backend)
    chunk_size = (
        _SCALAR_CHUNK_POINTS if resolved == "scalar"
        else _BATCH_CHUNK_POINTS
    )

    results: list[SweepPointResult] = []
    with obs.span(
        "engine.run_sweep", category="engine",
        points=spec.n_points, jobs=jobs, backend=resolved,
    ):
        points = spec.iter_points()
        while chunk := list(itertools.islice(points, chunk_size)):
            records = evaluate_many(
                [point.config for point in chunk], workload=workload,
                jobs=jobs, cache=cache, backend=resolved,
            )
            results.extend(
                SweepPointResult(point.overrides, point.config, record)
                for point, record in zip(chunk, records)
            )
    return results


def format_sweep_table(results: Iterable[SweepPointResult]) -> str:
    """Render sweep results as an aligned text table."""
    results = list(results)
    if not results:
        return "(empty sweep)"
    axis_names = list(results[0].overrides)
    has_runtime = results[0].record.runtime_s is not None
    header = "".join(f"{name:>12} " for name in axis_names)
    header += f"{'area mm2':>9} {'TDP W':>8} {'leak W':>8}"
    if has_runtime:
        header += f" {'time s':>9} {'EDP':>10}"
    lines = [header, "-" * len(header)]
    for result in results:
        row = "".join(
            f"{result.overrides[name]!s:>12} " for name in axis_names
        )
        record = result.record
        row += (
            f"{record.area_mm2:>9.1f} {record.tdp_w:>8.1f} "
            f"{record.leakage_w:>8.2f}"
        )
        if has_runtime:
            row += f" {record.runtime_s:>9.3f} {record.edp:>10.2f}"
        lines.append(row)
    return "\n".join(lines)

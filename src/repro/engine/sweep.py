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
    _ENCODER,
    _rejected,
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

        ``values`` may be any iterable of values (a list, a tuple, a
        range, a generator, a numpy array), but not one value: not a
        string, bytes or a mapping, which would sweep their characters,
        bytes or keys.

        Raises:
            ValueError: On an unknown axis name/path, an axis that is
                not a collection of values or has none, or two axes
                naming the same config field.
        """
        base_dict = system_config_to_dict(base)
        resolved: list[SweepAxis] = []
        for name, axis_values in axes.items():
            if isinstance(axis_values, (str, bytes, bytearray, Mapping)) \
                    or not isinstance(axis_values, Iterable):
                raise ValueError(
                    f"axis {name!r} needs a list of values, got "
                    f"{type(axis_values).__name__} {axis_values!r}"
                )
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
        so arbitrarily large sweeps use constant memory here. A point is
        built from its dict form, the base's with the axis values
        overlaid (:func:`~repro.config.loader.system_config_from_dict`),
        except in a flat sweep, where every axis is a top-level leaf
        field (the common clock/voltage/temperature sweeps). There the
        first point built from its dict is the template, and each later
        point whose axis values have exactly the classes of the
        template's fields is derived from it
        (:meth:`~repro.fastpath.CanonicalEncoder.derivation`): built as
        ``dataclasses.replace`` would, validators and all, keeping the
        template's field texts with its axis fields' texts swapped in.
        The template is read once and each axis value encoded once, so
        keying a point costs one format and one hash. A value of
        another class (an enum given as its string, an int in a float
        field, a bool in an int one) is built and type-checked by the
        loader and becomes the new template. Either way a validator's
        error reads as the loader's (``config: n_cores must be >= 1``).
        """
        base_dict = system_config_to_dict(self.base)
        paths = [axis.path.split(".") for axis in self.axes]
        names = [axis.name for axis in self.axes]
        values = [axis.values for axis in self.axes]
        flat = all(
            len(parts) == 1 and not isinstance(base_dict[parts[0]], dict)
            for parts in paths
        )
        derive = _ENCODER.derivation([
            (parts[0], axis_values)
            for parts, axis_values in zip(paths, values)
        ]) if flat else None
        # Set once a flat grid has its template config.
        template: SystemConfig | None = None
        field_types: tuple[type, ...] = ()
        for combo, positions in zip(
            itertools.product(*values),
            itertools.product(*(range(len(v)) for v in values)),
        ):
            if derive is not None and template is not None and tuple(
                map(type, combo)
            ) == field_types:
                try:
                    config = derive(template, positions)
                except ValueError as exc:
                    raise _rejected("config", exc) from None
            else:
                config = system_config_from_dict(
                    _overlay(base_dict, paths, combo)
                )
                if derive is not None:
                    template = config
                    field_types = tuple(
                        type(getattr(config, parts[0])) for parts in paths
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
            (exact, default), ``"numpy"``, or ``"auto"``. The clock axis
            vectorizes; every other axis, temperature included, changes
            the built chip and partitions the grid into groups, one
            compile each.

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

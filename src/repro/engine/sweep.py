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
pending work in memory, not 100k config dicts. Cache keys are rendered
through a per-sweep JSON template (:class:`_KeyTemplate`) that splices
axis values into the one position they occupy in the canonical key
payload — validated against :func:`~repro.engine.cache.config_key` and
discarded wholesale on any mismatch, so keys are always exactly the
ones the scalar path would compute.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro import obs
from repro.config.loader import (
    system_config_from_dict,
    system_config_to_dict,
)
from repro.config.schema import SystemConfig
from repro.engine.cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE,
    EvalCache,
    config_key,
)
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

#: Placeholder spliced into the key payload where an axis value goes.
#: NUL bytes cannot appear in real config data (they would be escaped
#: the same way, which is exactly why the match is unambiguous).
_AXIS_SENTINEL = "\x00repro-sweep-axis-{}\x00"

#: Axis value types whose JSON rendering trivially round-trips through
#: config construction; other types are template-validated per distinct
#: value (see ``run_sweep``'s ``key_for``).
_SAFE_VALUE_TYPES = (int, float, bool, type(None))


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


class _KeyTemplate:
    """Renders sweep cache keys by splicing values into a JSON template.

    :func:`~repro.engine.cache.config_key` costs a full config
    serialization per point; over a sweep every point's key payload is
    identical except at the axis leaf positions. The template dumps the
    payload once with sentinel strings at those positions, splits the
    canonical JSON blob around them, and renders each point's key by
    joining the fixed fragments with ``json.dumps(value)`` — a string
    concatenation and one sha256 instead of a config walk.

    Correctness is enforced, not assumed: ``run_sweep`` compares the
    template key against the real ``config_key`` on the first grid
    point (and once per distinct non-scalar axis value) and discards
    the template on any mismatch. ``build`` itself refuses payloads it
    cannot uniquely template (an axis shadowed by another axis, or a
    payload JSON cannot serialize).
    """

    __slots__ = ("_parts", "_order")

    def __init__(self, parts: list[str], order: list[int]) -> None:
        self._parts = parts
        self._order = order

    @classmethod
    def build(
        cls, spec: "SweepSpec", workload: Workload | None,
    ) -> "_KeyTemplate | None":
        base_dict = system_config_to_dict(spec.base)
        paths = [axis.path.split(".") for axis in spec.axes]
        sentinels = [_AXIS_SENTINEL.format(i) for i in range(len(paths))]
        shadow = _overlay(base_dict, paths, sentinels)
        payload = {
            "v": CACHE_SCHEMA_VERSION,
            "config": shadow,
            "workload": (
                dataclasses.asdict(workload)
                if workload is not None else None
            ),
        }
        try:
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        except (TypeError, ValueError):
            return None
        spans: list[tuple[int, int, int]] = []
        for i, sentinel in enumerate(sentinels):
            token = json.dumps(sentinel)
            start = blob.find(token)
            if start < 0 or blob.find(token, start + 1) >= 0:
                return None
            spans.append((start, start + len(token), i))
        spans.sort()
        parts: list[str] = []
        order: list[int] = []
        cursor = 0
        for start, end, i in spans:
            parts.append(blob[cursor:start])
            order.append(i)
            cursor = end
        parts.append(blob[cursor:])
        return cls(parts, order)

    def render(self, combo: Sequence[Any]) -> str:
        """Key for one grid point (axis values in spec order).

        Raises:
            TypeError, ValueError: When a value is not JSON-serializable
                (the caller falls back to :func:`config_key`).
        """
        pieces: list[str] = []
        for part, i in zip(self._parts, self._order):
            pieces.append(part)
            pieces.append(
                json.dumps(combo[i], sort_keys=True, separators=(",", ":"))
            )
        pieces.append(self._parts[-1])
        return hashlib.sha256("".join(pieces).encode("utf-8")).hexdigest()


class _SweepKeys:
    """Per-sweep cache-key renderer with self-validation.

    Wraps a :class:`_KeyTemplate` and the bookkeeping that keeps it
    honest: the first grid point — and the first occurrence of every
    distinct non-scalar axis value — is double-computed against the
    exact :func:`config_key` path; any mismatch (or a value the
    template cannot render) discards the template for the rest of the
    sweep. A rendered key is therefore only ever trusted after its
    value pattern has matched the exact path at least once.
    """

    def __init__(self, spec: "SweepSpec", workload: Workload | None) -> None:
        self.workload = workload
        self.template = _KeyTemplate.build(spec, workload)
        self.validated: list[set[str]] = [set() for _ in spec.axes]
        self.unvalidated = True

    def key_for(self, combo: tuple[Any, ...], config: SystemConfig) -> str:
        if self.template is None:
            return config_key(config, self.workload)
        try:
            fast = self.template.render(combo)
        except (TypeError, ValueError):
            self.template = None
            return config_key(config, self.workload)
        if not self.unvalidated and all(
            isinstance(value, _SAFE_VALUE_TYPES)
            or repr(value) in self.validated[i]
            for i, value in enumerate(combo)
        ):
            return fast
        slow = config_key(config, self.workload)
        if fast != slow:
            self.template = None
            return slow
        self.unvalidated = False
        for i, value in enumerate(combo):
            if not isinstance(value, _SAFE_VALUE_TYPES):
                self.validated[i].add(repr(value))
        return fast


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
        axes: Mapping[str, Sequence[Any]],
    ) -> "SweepSpec":
        """Build a spec from ``{axis name: values}``.

        Raises:
            ValueError: On an unknown axis name/path, an empty axis, or
                two axes naming the same config field.
        """
        base_dict = system_config_to_dict(base)
        resolved: list[SweepAxis] = []
        for name, values in axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            path = _resolve_path(base_dict, name)
            for other in resolved:
                if other.path == path:
                    raise ValueError(
                        f"axes {other.name!r} and {name!r} both set "
                        f"config field {path!r}"
                    )
            resolved.append(SweepAxis(
                name=name, path=path, values=tuple(values),
            ))
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

    def _iter_built(
        self,
    ) -> Iterator[tuple[tuple[Any, ...], dict[str, Any], SystemConfig]]:
        """Stream ``(combo, overrides, config)`` in grid order.

        When every axis is a top-level scalar field (the common
        frequency/voltage/temperature sweeps), the nested component
        configs are identical across the whole grid: one template
        config is built from the first point and every other point is
        a ``dataclasses.replace`` of it — the frozen sub-configs are
        shared, only the top-level dataclass (and its validators) is
        rebuilt. The shortcut only fires when each axis value has
        exactly the class of the field's built value (``from_dict``
        converts enum-typed fields and type-checks every value, which
        ``replace`` must not skip: a bool is an ``int`` subclass);
        nested axes and type-changing values take the general
        dict-overlay path.
        """
        base_dict = system_config_to_dict(self.base)
        paths = [axis.path.split(".") for axis in self.axes]
        names = [axis.name for axis in self.axes]
        flat = all(
            len(parts) == 1 and not isinstance(base_dict[parts[0]], dict)
            for parts in paths
        )
        field_types: tuple[type, ...] | None = None
        template_config: SystemConfig | None = None
        for combo in itertools.product(*(a.values for a in self.axes)):
            if (
                flat
                and template_config is not None
                and field_types is not None
                and all(
                    value.__class__ is kind
                    for value, kind in zip(combo, field_types)
                )
            ):
                config = dataclasses.replace(
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
            yield combo, dict(zip(names, combo)), config

    def iter_points(self) -> Iterator[SweepPoint]:
        """Stream the cross product lazily, last axis varying fastest.

        Each point is built on demand — the grid is never materialized,
        so arbitrarily large sweeps use constant memory here.
        """
        for _, overrides, config in self._iter_built():
            yield SweepPoint(overrides=overrides, config=config)


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
    use_hints = resolved == "numpy"
    structural = [
        i for i, axis in enumerate(spec.axes)
        if axis.path not in _batch.GROUP_AXES
    ]

    keys = _SweepKeys(spec, workload)

    results: list[SweepPointResult] = []
    buf_points: list[SweepPoint] = []
    buf_keys: list[str] = []
    buf_groups: list[str] = []

    def flush() -> None:
        if not buf_points:
            return
        records = evaluate_many(
            [point.config for point in buf_points],
            workload=workload,
            jobs=jobs,
            cache=cache,
            backend=resolved,
            _keys=buf_keys,
            _group_keys=buf_groups if use_hints else None,
        )
        results.extend(
            SweepPointResult(
                overrides=point.overrides,
                config=point.config,
                record=record,
            )
            for point, record in zip(buf_points, records)
        )
        buf_points.clear()
        buf_keys.clear()
        buf_groups.clear()

    with obs.span(
        "engine.run_sweep", category="engine",
        points=spec.n_points, jobs=jobs, backend=resolved,
    ):
        for combo, overrides, config in spec._iter_built():
            buf_points.append(SweepPoint(
                overrides=overrides, config=config,
            ))
            buf_keys.append(keys.key_for(combo, config))
            if use_hints:
                buf_groups.append(repr(tuple(
                    (spec.axes[i].path, repr(combo[i]))
                    for i in structural
                )))
            if len(buf_points) >= chunk_size:
                flush()
        flush()

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

"""JSON persistence for :class:`~repro.config.schema.SystemConfig`.

McPAT consumes an XML description; this reproduction uses JSON with the
same information content. Round-tripping is exact: ``load(save(cfg)) ==
cfg``.

The same canonical text keys what a config shares with others:
:func:`chip_key`, every field but the clock, keys its built chip parts
and its compiled batch group, and is read from :func:`config_texts`, as
is the engine's :func:`~repro.engine.cache.config_key`. They live here,
below the engine, so a cold report computes its chip key without
importing :mod:`repro.engine`.
"""

from __future__ import annotations

import dataclasses
import json
import operator
import typing
from collections.abc import Mapping
from enum import Enum
from pathlib import Path
from typing import Any, NamedTuple

from repro import fastpath
from repro.config.schema import (
    LinkSignaling,
    NocTopology,
    SystemConfig,
)
from repro.tech import DeviceType


def _to_dict(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _to_dict(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, (NocTopology, DeviceType, LinkSignaling)):
        return obj.value
    if isinstance(obj, tuple):
        return [_to_dict(v) for v in obj]
    return obj


def system_config_to_dict(config: SystemConfig) -> dict[str, Any]:
    """Serialize a system config to plain JSON-compatible types."""
    return _to_dict(config)


#: Value types a leaf annotation takes. ``bool`` subclasses ``int`` in
#: Python, so a bool is rejected unless the annotation is ``bool``.
_LEAF_TYPES: dict[type, tuple[type, ...]] = {
    int: (int,), float: (int, float), bool: (bool,), str: (str,),
}


class _Field(NamedTuple):
    """One schema field's annotation, as the loader checks it."""

    #: A key of :data:`_LEAF_TYPES`, an Enum, or a schema dataclass.
    kind: type
    #: ``X | None``: null is admitted too.
    nullable: bool

    def expected(self) -> str:
        if dataclasses.is_dataclass(self.kind):
            text = "object"
        elif issubclass(self.kind, Enum):
            text = "one of " + ", ".join(m.value for m in self.kind)
        else:
            text = self.kind.__name__
        return text + " or null" if self.nullable else text


def _field_tables(root: type) -> dict[type, dict[str, _Field]]:
    """One ``{field name: _Field}`` table per schema dataclass reachable
    from ``root``, read from the resolved annotations."""
    tables: dict[type, dict[str, _Field]] = {}
    pending = [root]
    while pending:
        cls = pending.pop()
        if cls in tables:
            continue
        table = {}
        for name, hint in typing.get_type_hints(cls).items():
            args = [a for a in typing.get_args(hint) if a is not type(None)]
            (kind,) = args or (hint,)
            table[name] = _Field(kind, nullable=bool(args))
            if dataclasses.is_dataclass(kind):
                pending.append(kind)
            elif not issubclass(kind, Enum) and kind not in _LEAF_TYPES:
                raise TypeError(f"{cls.__name__}.{name}: no loader for "
                                f"{kind!r}")
        tables[cls] = table
    return tables


_FIELDS = _field_tables(SystemConfig)

#: Per schema dataclass and field, the value classes taken as they are:
#: the common case costs one set lookup per leaf.
_AS_IS: dict[type, dict[str, frozenset[type]]] = {
    cls: {
        name: frozenset(_LEAF_TYPES.get(field.kind, ())
                        + ((type(None),) if field.nullable else ()))
        for name, field in table.items()
    }
    for cls, table in _FIELDS.items()
}


def _rejected(path: str, exc: ValueError) -> ValueError:
    """A schema validator's error, prefixed with the path of the object
    it rejected (``config.l2: banks must be ...``)."""
    return ValueError(f"{path}: {exc}")


def _build(cls: type, data: Mapping[str, Any], path: str) -> Any:
    """``cls`` from its dict form, every value checked against the
    field tables before any schema validator runs; a validator's error
    is prefixed with the object's path (``config.l2: ...``)."""
    as_is = _AS_IS[cls]
    kwargs = dict(data)
    for name, value in data.items():
        if value.__class__ not in as_is.get(name, ()):
            kwargs[name] = _convert(cls, name, value, f"{path}.{name}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise _rejected(path, exc) from None


def _convert(cls: type, name: str, value: Any, where: str) -> Any:
    """The slow path of :func:`_build`: nested objects, enums, leaf
    subclasses (``numpy.float64``), and every error."""
    field = _FIELDS[cls].get(name)
    if field is None:
        raise ValueError(f"{where}: unknown field")
    kind = field.kind
    if kind in _FIELDS:
        if isinstance(value, Mapping):
            return _build(kind, value, where)
    elif kind in _LEAF_TYPES:
        if value.__class__ is not bool and isinstance(
                value, _LEAF_TYPES[kind]):
            return value
    else:
        try:
            return kind(value)
        except ValueError:
            pass
    shown = repr(value)
    if len(shown) > 40:
        shown = shown[:37] + "..."
    raise ValueError(f"{where}: expected {field.expected()}, "
                     f"got {type(value).__name__} {shown}")


def system_config_from_dict(data: Mapping[str, Any]) -> SystemConfig:
    """Reconstruct a system config from :func:`system_config_to_dict` output.

    Every value is checked against its field's annotation first: ``int``
    takes an int but not a bool, ``float`` an int or a float, ``bool``
    only a bool, ``str`` only a str, an enum one of its values, and
    ``| None`` also null.

    Raises:
        ValueError: On a value of the wrong type or an unknown field
            (the message names the field path, e.g. ``config.l2.banks``),
            or when a schema validator rejects a value.
        TypeError: When a required field is missing.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"config: expected object, got "
                         f"{type(data).__name__}")
    return _build(SystemConfig, data, "config")


#: Every schema dataclass, laid out once at import: the encoder of every
#: config key.
_ENCODER = fastpath.CanonicalEncoder(tuple(_FIELDS))

#: A config's fields' texts but ``clock_hz``, in key order.
ChipKey = tuple[str, ...]
_CHIP = operator.itemgetter(*(
    i for i, name in enumerate(_ENCODER.names(SystemConfig))
    if name != "clock_hz"
))


def _texts(
    config: SystemConfig, workload: Any = None,
) -> tuple[str, str, tuple[str, ...]]:
    try:
        text, fields = _ENCODER.fields(config, "config")
        return text, _ENCODER.text(workload, "workload"), fields
    except ValueError as exc:
        label = getattr(config, "name", None)
        label = label if isinstance(label, str) else "<config>"
        raise ValueError(
            f"configuration {label!r} cannot be content-hashed: {exc}"
        ) from None


def config_texts(
    config: SystemConfig, workload: Any = None,
) -> tuple[str, str, ChipKey]:
    """``config``'s canonical text, ``workload``'s (``null`` for none)
    and ``config``'s :func:`chip_key`, from one walk of the config, or
    none: a config walked before, or a flat sweep point
    (:meth:`~repro.engine.sweep.SweepSpec.iter_points`), kept its
    fields' texts. A value with no JSON form raises ``ValueError``
    naming the config and the value's path."""
    text, workload_text, fields = _texts(config, workload)
    return text, workload_text, _CHIP(fields)


def chip_key(config: SystemConfig) -> ChipKey:
    """What building ``config``'s chip reads: the texts of every field
    but ``clock_hz``. It keys the chip's parts
    (:attr:`repro.chip.processor.Processor.parts`) and its compiled
    batch group (:mod:`repro.batch`), the texts themselves, not a hash,
    so two chips never share a key.

    Texts, not dataclass equality: a ``temperature_k`` of 360 and one
    of 360.0 are two keys here, as in
    :func:`~repro.engine.cache.config_key`.
    """
    key: ChipKey = _CHIP(_texts(config)[2])
    return key


def save_system_config(config: SystemConfig, path: str | Path) -> None:
    """Write a system config as JSON."""
    Path(path).write_text(
        json.dumps(system_config_to_dict(config), indent=2) + "\n"
    )


def load_system_config(path: str | Path) -> SystemConfig:
    """Read a system config from JSON written by :func:`save_system_config`."""
    return system_config_from_dict(json.loads(Path(path).read_text()))

"""Process-wide memoization fast path for single-chip evaluation.

Much of one cold :meth:`~repro.chip.processor.Processor.report` would
be recomputation of pure functions of immutable inputs: the
repeated-wire optimizer re-solves the same ``(tech, plane, penalty)``
design point dozens of times per chip, sized :class:`Gate` objects
re-derive the same RC constants, and structurally identical arrays
recur. This module provides the shared machinery those layers use to
remember their answers:

* :class:`Memo` — a small bounded (LRU) process-wide cache with hit/miss
  counters, automatically registered for :func:`clear_all` / :func:`stats`.
* :func:`enabled` / :func:`disabled` — a global switch. Inside a
  ``with fastpath.disabled():`` block every memo is bypassed, and
  nothing else changes: every model runs the same code in both modes.
  The parity suite uses this to assert that memoized and unmemoized
  evaluations produce numerically identical reports.
* :class:`CanonicalEncoder` / :func:`stable_hash` — the one canonical
  encoding every cache key is derived from, so every cache layer keys
  on *content*, never object identity. There is no ``str`` fallback.

Memos are per-process. Worker processes forked by ``repro.engine`` each
warm their own copy, which is exactly what makes repeated points inside
one worker cheap without any cross-process coordination.
"""

from __future__ import annotations

import dataclasses
import hashlib
import operator
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager, suppress
from enum import Enum
from json.encoder import encode_basestring_ascii
from typing import (
    Any,
    Callable,
    Iterator,
    NamedTuple,
    Sequence,
    TypeVar,
    cast,
)

from repro.obs import metrics as _obs_metrics

T = TypeVar("T")

_enabled: bool = True

#: Every Memo ever constructed, for clear_all()/stats().
_REGISTRY: list["Memo"] = []

#: What :meth:`Memo.lookup` returns for an absent key inside the module.
_MISSING = object()


def enabled() -> bool:
    """Whether the memos are live (outside :func:`disabled`)."""
    return _enabled


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager: run the enclosed block without the memos.

    All :class:`Memo` lookups are bypassed (values are recomputed and not
    stored); no model changes how it computes. Existing memo contents
    are left untouched and become live again on exit.
    """
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


class Memo:
    """A bounded process-wide LRU memo table.

    Thread-safe: the serve tier calls memoized code from executor
    threads, so lookup/insert/evict and the counters are serialized by a
    per-memo lock. The compute callback runs *outside* the lock — two
    threads missing the same key may both compute (pure functions, same
    value) rather than one blocking the other's unrelated lookups.

    Args:
        name: Label used in :func:`stats` output.
        max_entries: Capacity; least-recently-used entries are evicted.

    Attributes:
        hits: Successful lookups.
        misses: Lookups that found nothing.
        evictions: Entries dropped to stay within ``max_entries``.
    """

    def __init__(self, name: str, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        _REGISTRY.append(self)

    def get_or_compute(self, key: Any, compute: Callable[[], T]) -> T:
        """Return the memoized value for ``key``, computing on a miss.

        When the fast path is :func:`disabled`, always computes and never
        touches the table, so the exact path has zero memo coupling.
        """
        value = self.lookup(key, _MISSING)
        if value is _MISSING:
            value = compute()
            self.put(key, value)
        return cast(T, value)

    def lookup(self, key: Any, default: Any = None) -> Any:
        """``key``'s memoized value, or ``default``; computes nothing.

        Counts a hit or a miss as :meth:`get_or_compute` does. A caller
        that misses and computes the value elsewhere stores it with
        :meth:`put`. When the fast path is :func:`disabled`, finds
        nothing and counts nothing.
        """
        if not _enabled:
            return default
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Any, value: Any) -> None:
        """Store ``value`` under ``key`` without counting a lookup. A
        no-op when the fast path is :func:`disabled`."""
        if not _enabled:
            return
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def replace(self, key: Any, old: Any, new: Any) -> None:
        """Swap ``key``'s entry from ``old`` to ``new``, atomically.

        For values that grow: a caller that read ``old`` through
        :meth:`get_or_compute` and derived ``new`` from it stores the
        result only if no other thread replaced ``old`` meanwhile (an
        evicted entry counts as unchanged). A no-op when the fast path
        is :func:`disabled`.
        """
        if not _enabled:
            return
        with self._lock:
            if self._entries.get(key, old) is not old:
                return
            self._entries[key] = new
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)


def _reinit_after_fork() -> None:
    """Replace every memo's lock in a freshly forked child.

    A fork can land while another thread in the parent holds a memo
    lock; the child would inherit it locked forever (the owning thread
    does not exist there). Same pattern the stdlib ``logging`` module
    uses for its handler locks.
    """
    for memo in _REGISTRY:
        memo._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # not on every platform
    os.register_at_fork(after_in_child=_reinit_after_fork)


def clear_all() -> None:
    """Empty every registered memo (cold-start state, e.g. for benchmarks)."""
    for memo in _REGISTRY:
        memo.clear()


def stats() -> dict[str, dict[str, int]]:
    """Per-memo hit/miss/eviction/size counters, keyed by memo name."""
    return {
        memo.name: {
            "hits": memo.hits,
            "misses": memo.misses,
            "evictions": memo.evictions,
            "entries": len(memo),
        }
        for memo in _REGISTRY
    }


def _obs_collect() -> dict[str, float]:
    """Memo counters in the flat form the metrics registry snapshots.

    Registered as a pull-side collector so the memo hot path carries no
    instrumentation at all — the registry reads these counters (which
    the memos keep anyway) only when a snapshot is taken.
    """
    out: dict[str, float] = {}
    for memo in _REGISTRY:
        out[f"memo.{memo.name}.hits"] = float(memo.hits)
        out[f"memo.{memo.name}.misses"] = float(memo.misses)
        out[f"memo.{memo.name}.evictions"] = float(memo.evictions)
        out[f"memo.{memo.name}.entries"] = float(len(memo))
    return out


_obs_metrics.register_collector("fastpath.memos", _obs_collect)


#: Where an instance keeps its canonical text and its fields' texts (in
#: key order): not fields, so equality, ``repr``, ``dataclasses.replace``
#: and ``system_config_to_dict`` never see them.
_TEXT = "_canonical_json"
_FIELD_TEXTS = "_canonical_fields"

#: ``float.__repr__`` spellings JSON writes differently.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


#: Text of each exact leaf class: most of every payload.
_LEAVES: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


class _Layout(NamedTuple):
    """A dataclass's fields in key order; ``form % texts`` is its text."""

    names: tuple[str, ...]
    form: str
    values: Callable[[Any], tuple[Any, ...]]


def _layout(cls: type[Any]) -> _Layout:
    names = tuple(sorted(f.name for f in dataclasses.fields(cls)))
    form = "{" + ",".join(
        encode_basestring_ascii(name) + ":%s" for name in names
    ) + "}"
    values: Callable[[Any], tuple[Any, ...]] = (
        operator.attrgetter(*names) if len(names) > 1
        else lambda obj: tuple(getattr(obj, name) for name in names)
    )
    return _Layout(names, form, values)


def _immutable(value: Any) -> bool:
    """Whether ``value``'s text can never change: a leaf (a subclass
    such as ``numpy.float64`` too), an enum or a kept text."""
    return (value.__class__ in _LEAVES
            or isinstance(value, (str, int, float, Enum))
            or hasattr(value, _TEXT))


def _unencodable(path: str, reason: str) -> ValueError:
    return ValueError(f"{path} ({reason}) is not serializable")


class CanonicalEncoder:
    """The text ``json.dumps(payload, sort_keys=True, separators=(",",
    ":"))`` writes for ``payload`` with its dataclasses as objects of
    their fields: enums by value, ``str``/``int``/``float`` subclasses
    (``numpy.float64``) as their base class, ints as ints even in float
    fields. Any other value is an error naming its path.

    A frozen dataclass instance keeps its text and its fields' texts
    when its fields all hold leaves, enums or kept texts (not a list, a
    dict, a mutable dataclass), so it is walked once. The points of a
    flat sweep keep their fields' texts from birth (:meth:`derivation`).
    ``classes`` are laid out here, any other dataclass on its first walk.
    """

    def __init__(self, classes: tuple[type, ...] = ()) -> None:
        self._layouts = {cls: _layout(cls) for cls in classes}

    def text(self, payload: Any, root: str = "payload") -> str:
        """Raises ValueError naming the path from ``root`` of a value
        with no JSON form (``config.niu[0] (circular reference)``)."""
        return self._value(payload, root, set())

    def stable_hash(self, payload: Any) -> str:
        """sha256 of ``payload``'s text: two structurally equal
        payloads hash identically however they were built."""
        return hashlib.sha256(self.text(payload).encode()).hexdigest()

    def names(self, cls: type[Any]) -> tuple[str, ...]:
        """The field names of dataclass ``cls``, in key order."""
        return (self._layouts.get(cls) or self._lay_out(cls)).names

    def fields(self, obj: Any, root: str) -> tuple[str, tuple[str, ...]]:
        """Dataclass ``obj``'s text and its fields' texts, in key order;
        texts it kept are returned without a walk."""
        return self._object(obj, root, {id(obj)})

    def derivation(
        self, axes: Sequence[tuple[str, Sequence[Any]]],
    ) -> "Derivation":
        """The points of a flat sweep over ``axes``, ``(field name,
        values)`` pairs: see :class:`Derivation`."""
        return Derivation(self, axes)

    def _lay_out(self, cls: type[Any]) -> _Layout:
        layout = _layout(cls)
        # A copy, rebound: no reader sees the dict change under it.
        self._layouts = {**self._layouts, cls: layout}
        return layout

    def _value(self, value: Any, path: str, active: set[int]) -> str:
        kept = getattr(value, _TEXT, None)
        if kept is not None:
            return cast(str, kept)
        for base in value.__class__.__mro__:  # str enums, numpy.float64
            if base in _LEAVES:
                return _LEAVES[base](value)
        if isinstance(value, Enum):
            return self._value(value.value, path, active)
        is_object = hasattr(value.__class__, "__dataclass_fields__")
        if not is_object and not isinstance(value, (list, tuple, dict)):
            raise _unencodable(path, f"value of type {type(value).__name__}")
        if id(value) in active:
            raise _unencodable(path, "circular reference")
        active.add(id(value))
        if is_object:
            text = self._object(value, path, active)[0]
        elif isinstance(value, dict):
            text = self._mapping(value, path, active)
        else:
            text = "[" + ",".join(
                self._value(item, f"{path}[{i}]", active)
                for i, item in enumerate(value)
            ) + "]"
        active.discard(id(value))
        return text

    def _object(self, obj: Any, path: str,
                active: set[int]) -> tuple[str, tuple[str, ...]]:
        layout = (self._layouts.get(obj.__class__)
                  or self._lay_out(obj.__class__))
        kept: tuple[str, ...] | None = getattr(obj, _FIELD_TEXTS, None)
        if kept is not None:
            return layout.form % kept, kept
        values = layout.values(obj)
        leaf_of = _LEAVES.get
        texts = tuple([
            leaf(value) if (leaf := leaf_of(value.__class__)) is not None
            else getattr(value, _TEXT, None)
            or self._value(value, f"{path}.{name}", active)
            for name, value in zip(layout.names, values)
        ])
        text = layout.form % texts
        if obj.__dataclass_params__.frozen and all(map(_immutable, values)):
            with suppress(AttributeError):  # slotted: nowhere to keep them
                object.__setattr__(obj, _TEXT, text)
                object.__setattr__(obj, _FIELD_TEXTS, texts)
        return text, texts

    def _mapping(self, mapping: dict[Any, Any], path: str,
                 active: set[int]) -> str:
        for key in mapping:
            if not isinstance(key, (str, int, float, type(None))):
                raise _unencodable(
                    f"{path}[{key!r}]",
                    f"mapping key of type {type(key).__name__}; "
                    "JSON keys must be scalars",
                )
        try:
            items = sorted(mapping.items())
        except TypeError as exc:
            raise _unencodable(
                path, f"unsortable mapping keys: {exc}",
            ) from None
        return "{" + ",".join(
            (encode_basestring_ascii(key) if isinstance(key, str)
             else f'"{self._value(key, path, active)}"')
            + ":" + self._value(value, f"{path}.{key}", active)
            for key, value in items
        ) + "}"


class Derivation:
    """Instances of a dataclass that differ from a template only in
    some top-level fields, each set from an axis of values: the points
    of a flat sweep. Made by :meth:`CanonicalEncoder.derivation`.

    ``derive(template, positions)`` builds ``template`` with each axis
    field set to its axis's value at ``positions``, as
    ``dataclasses.replace`` would: ``__init__`` and its validators run,
    and their errors propagate. The instance keeps its fields' texts:
    the template's, read once per template, with each axis field's text
    encoded once per axis position, never looked up by value (``-0.0 ==
    0.0`` and ``360 == 360.0``, but each pair encodes apart). Keying it
    walks nothing. It keeps none, and is walked when keyed, unless the
    template keeps its own (by the encoder's rule: frozen, every field
    a leaf, an enum or a kept text) and its axis value could keep one
    (not a list, a mutable dataclass, a value with no JSON form). The
    class's validators must check fields, not rewrite them, as the
    config schema's do.
    """

    def __init__(self, encoder: CanonicalEncoder,
                 axes: Sequence[tuple[str, Sequence[Any]]]) -> None:
        self._encoder = encoder
        self._names = tuple(name for name, _ in axes)
        self._axes = tuple(values for _, values in axes)
        #: Each axis value's text by position; "" where it keeps none.
        self._axis_texts = tuple(
            tuple(map(self._text, values)) for values in self._axes
        )
        self._template: Any = None
        self._values: dict[str, Any] = {}
        self._slots: tuple[int, ...] = ()
        self._texts: list[str] | None = None

    def _text(self, value: Any) -> str:
        if not _immutable(value):
            return ""
        try:
            return self._encoder.text(value)
        except ValueError:  # an enum member with no JSON form
            return ""

    def _read(self, template: Any) -> None:
        """Read ``template``'s values and the texts it keeps, once."""
        cls = template.__class__
        names = self._encoder.names(cls)
        self._template = template
        self._values = {
            f.name: getattr(template, f.name)
            for f in dataclasses.fields(cls) if f.init
        }
        self._slots = tuple(map(names.index, self._names))
        with suppress(ValueError):  # keyed later, where it names its path
            self._encoder.fields(template, "template")
        kept = getattr(template, _FIELD_TEXTS, None)
        self._texts = (
            list(kept) if kept is not None and len(self._values) == len(names)
            else None
        )

    def __call__(self, template: T, positions: Sequence[int]) -> T:
        if template is not self._template:
            self._read(template)
        values = self._values.copy()
        for name, axis, position in zip(self._names, self._axes, positions):
            values[name] = axis[position]
        point = template.__class__(**values)
        if self._texts is None:
            return point
        texts = self._texts.copy()
        for slot, axis_texts, position in zip(
            self._slots, self._axis_texts, positions,
        ):
            text = axis_texts[position]
            if not text:
                return point
            texts[slot] = text
        object.__setattr__(point, _FIELD_TEXTS, tuple(texts))
        return point


#: :meth:`CanonicalEncoder.stable_hash` with no classes laid out ahead.
#: A caller hashing the same classes on every call lays them out in an
#: encoder of its own at import (``build_array``); the digest is the
#: same.
stable_hash = CanonicalEncoder().stable_hash

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
  ``with fastpath.disabled():`` block every memo is bypassed *and* the
  repeater optimizer sweeps its whole grid instead of a window around
  the closed-form seed. The organization search is the same exact
  search in both modes. The parity suite uses this to assert that
  memoized and unmemoized evaluations produce numerically identical
  reports.
* :func:`stable_hash` — the deterministic content-hash used by
  :func:`repro.engine.cache.config_key` and the ``build_array`` memo, so
  every cache layer keys on *content*, never object identity.

Memos are per-process. Worker processes forked by ``repro.engine`` each
warm their own copy, which is exactly what makes repeated points inside
one worker cheap without any cross-process coordination.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, TypeVar, cast

from repro.obs import metrics as _obs_metrics

T = TypeVar("T")

_enabled: bool = True

#: Every Memo ever constructed, for clear_all()/stats().
_REGISTRY: list["Memo"] = []


def enabled() -> bool:
    """Whether the fast path (memos + windowed repeater sizing) is active."""
    return _enabled


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager: run the enclosed block on the exact, unmemoized path.

    All :class:`Memo` lookups are bypassed (values are recomputed and not
    stored) and the repeater optimizer sweeps its full grid. The array
    organization search does not change: it scores every tiling in both
    modes. Existing memo contents are left untouched and become live
    again on exit.
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
        misses: Lookups that had to compute.
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
        if not _enabled:
            return compute()
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                return cast(T, value)
        value = compute()
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return value

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


def stable_hash(payload: Any) -> str:
    """Deterministic sha256 over the canonical JSON form of ``payload``.

    Dataclasses are flattened with :func:`dataclasses.asdict`; anything
    JSON cannot represent falls back to ``str``. Two structurally equal
    payloads always hash identically regardless of how they were built.
    """
    def canonical(obj: Any) -> Any:
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return dataclasses.asdict(obj)
        return obj

    blob = json.dumps(
        canonical(payload), sort_keys=True, separators=(",", ":"),
        default=lambda o: canonical(o) if dataclasses.is_dataclass(o)
        else str(o),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

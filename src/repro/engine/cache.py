"""Content-hash result cache: in-memory LRU plus optional JSONL store.

The key is a deterministic hash over the *content* of a
:class:`~repro.config.schema.SystemConfig` and the workload, so two
structurally identical configs share a key no matter how they were built
(preset, JSON file, or ``dataclasses.replace`` chain). Overlapping grid
sweeps and repeated studies therefore reuse every point they have in
common.

The optional on-disk store is an append-only JSONL log: loading replays
the log (last write wins), and every new record is appended as it is
computed. It is the one persisted result store: a sweep given a
file-backed cache resumes from its log, re-evaluating only the points
the log does not hold.

The cache is safe to share across threads — the serve tier
(:mod:`repro.serve`) keeps **one** process-wide instance that every
concurrent request goes through. In-memory state is guarded by a lock,
and appends are written with ``O_APPEND`` as one whole line per
``write`` syscall, so interleaved writers (threads, or even several
processes sharing one log file) can never splice lines into each other.
The loader is correspondingly corruption-tolerant: a truncated trailing
line (a crash mid-append), an unreadable line or a line that is not a
well-typed record is skipped and counted in
:attr:`EvalCache.corrupt_lines_skipped` rather than poisoning the load
or being served.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path

from repro.config.loader import ChipKey, config_texts
from repro.config.schema import SystemConfig
from repro.engine.record import EvalRecord
from repro.perf.workload import Workload

#: Bump when the model or record layout changes meaningfully, so stale
#: on-disk caches from older code are never served.
CACHE_SCHEMA_VERSION = 1

#: In-memory capacity of a result cache (records), unless a caller
#: sizes one for a known workload (``sweep --cache`` sizes it to the
#: grid, so resuming a larger grid still finds every logged point).
CACHE_CAPACITY = 4096


def config_keys(
    config: SystemConfig, workload: Workload | None = None,
) -> tuple[str, ChipKey]:
    """``(config_key(config, workload), chip_key(config))``, from one
    :func:`~repro.config.loader.config_texts`: a config that kept its
    fields' texts is keyed with one format and one hash."""
    config_text, workload_text, chip = config_texts(config, workload)
    # The canonical text of {"v": ..., "config": ..., "workload": ...}.
    key_text = (
        f'{{"config":{config_text},"v":{CACHE_SCHEMA_VERSION},'
        f'"workload":{workload_text}}}'
    )
    return hashlib.sha256(key_text.encode()).hexdigest(), chip


def config_key(config: SystemConfig, workload: Workload | None = None) -> str:
    """Deterministic content-hash key for one (config, workload) pair.

    The same configuration always maps to the same key; changing any
    field — however deeply nested — produces a different key. It is the
    sha256 of the canonical JSON text of ``{"v": 1, "config": <fields>,
    "workload": <fields or null>}``, the same bytes in every release.
    A value that cannot be content-hashed raises ``ValueError`` naming
    its field path.
    """
    return config_keys(config, workload)[0]


class EvalCache:
    """LRU cache of :class:`EvalRecord` with an optional JSONL backing file.

    Thread-safe: one instance may be shared by concurrent callers (the
    serve tier does exactly that). Lookups/stores take an internal lock;
    log appends are single ``O_APPEND`` writes of whole lines.

    Args:
        max_entries: In-memory capacity; least-recently-used entries are
            evicted (they remain in the on-disk log if one is configured).
        path: Optional JSONL file. Existing entries are loaded eagerly;
            new entries are appended as they are stored.

    Attributes:
        hits: Number of successful lookups.
        misses: Number of failed lookups.
        evictions: In-memory entries dropped by the LRU policy.
        corrupt_lines_skipped: Unreadable/truncated JSONL lines skipped
            by the loader (0 for a healthy log).
    """

    def __init__(
        self,
        max_entries: int = CACHE_CAPACITY,
        path: str | Path | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.path = Path(path) if path is not None else None
        self.hits = 0
        self.misses = 0
        # _evict_locked and _load mutate these with the lock already held
        # by their callers (or from __init__, before the instance escapes).
        self.evictions = 0  # repro: guarded-by[_lock]
        self.corrupt_lines_skipped = 0  # repro: guarded-by[_lock]
        self._lock = threading.Lock()
        self._records: OrderedDict[str, EvalRecord] = (  # repro: guarded-by[_lock]
            OrderedDict()
        )
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        """Replay the JSONL log, skipping (and counting) unreadable lines.

        A line that does not parse — typically the trailing line of a
        log truncated by a crash or a concurrent writer mid-append — or
        that is not ``{"key": <string>, "record": <object>}`` with the
        field types :meth:`EvalRecord.from_dict` checks, is skipped and
        counted, never fatal and never served.
        """
        assert self.path is not None
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                key = entry["key"]
                if not isinstance(key, str):
                    raise TypeError("a cache key must be a string")
                record = EvalRecord.from_dict(entry["record"])
            except (json.JSONDecodeError, KeyError, TypeError):
                self.corrupt_lines_skipped += 1
                continue
            self._records[key] = record
            self._records.move_to_end(key)
        self._evict_locked()

    def _evict_locked(self) -> None:
        """Enforce capacity; caller holds the lock (or is ``__init__``)."""
        while len(self._records) > self.max_entries:
            self._records.popitem(last=False)
            self.evictions += 1

    def get(self, key: str) -> EvalRecord | None:
        """Look up a record; cached results come back ``from_cache=True``."""
        with self._lock:
            record = self._records.get(key)
            if record is None:
                self.misses += 1
                return None
            self._records.move_to_end(key)
            self.hits += 1
        return dataclasses.replace(record, from_cache=True)

    def put(self, key: str, record: EvalRecord) -> None:
        """Store a record, appending to the JSONL log for new keys.

        A fresh record (``from_cache=False``) is stored as it is; only a
        record served from a cache is copied, to clear its flag. The
        append is one ``write`` on an ``O_APPEND`` descriptor, so
        concurrent writers — threads of this process or other processes
        sharing the log — produce interleaved whole lines, never spliced
        partial ones.
        """
        if record.from_cache:
            record = dataclasses.replace(record, from_cache=False)
        with self._lock:
            is_new = key not in self._records
            self._records[key] = record
            self._records.move_to_end(key)
            self._evict_locked()
        if is_new and self.path is not None:
            line = json.dumps(
                {"key": key, "record": record.to_dict()}, sort_keys=True,
            )
            payload = (line + "\n").encode("utf-8")
            fd = os.open(
                self.path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)

    def clear(self) -> None:
        """Drop the in-memory entries and reset the hit/miss counters.

        The on-disk log, if any, is left untouched.
        """
        with self._lock:
            self._records.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.corrupt_lines_skipped = 0

    def counters(self) -> dict[str, float]:
        """The ``engine.cache.*`` counters that metrics snapshots report."""
        return {
            "engine.cache.hits": float(self.hits),
            "engine.cache.misses": float(self.misses),
            "engine.cache.evictions": float(self.evictions),
            "engine.cache.entries": float(len(self)),
            "engine.cache.corrupt_lines_skipped": float(
                self.corrupt_lines_skipped
            ),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._records


#: Process-wide shared cache used when callers don't supply their own, so
#: independent studies in one process (CLI, tests, notebooks) reuse every
#: evaluation they have in common. Pass ``cache=None`` to bypass it.
DEFAULT_CACHE = EvalCache()

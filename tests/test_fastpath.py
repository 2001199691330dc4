"""Unit tests for the fast-path memo substrate."""

import dataclasses
import enum
import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import fastpath


class TestMemo:
    def test_computes_once(self):
        memo = fastpath.Memo("t-once", max_entries=4)
        calls = []
        for _ in range(3):
            value = memo.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1
        assert memo.hits == 2
        assert memo.misses == 1

    def test_lru_eviction(self):
        memo = fastpath.Memo("t-lru", max_entries=2)
        memo.get_or_compute("a", lambda: 1)
        memo.get_or_compute("b", lambda: 2)
        memo.get_or_compute("a", lambda: 1)   # refresh a
        memo.get_or_compute("c", lambda: 3)   # evicts b
        assert len(memo) == 2
        calls = []
        memo.get_or_compute("b", lambda: calls.append(1) or 2)
        assert calls  # b was recomputed

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            fastpath.Memo("t-bad", max_entries=0)

    def test_replace_swaps_only_the_entry_it_read(self):
        memo = fastpath.Memo("t-replace")
        old = memo.get_or_compute("k", lambda: ["old"])
        new = ["new"]
        memo.replace("k", old, new)
        assert memo.get_or_compute("k", lambda: None) is new
        # A writer that read ``old`` before ``new`` landed loses.
        memo.replace("k", old, ["stale"])
        assert memo.get_or_compute("k", lambda: None) is new

    def test_replace_of_an_evicted_entry_stores_it(self):
        memo = fastpath.Memo("t-replace-evicted", max_entries=1)
        old = memo.get_or_compute("a", lambda: ["a"])
        memo.get_or_compute("b", lambda: ["b"])  # evicts a
        memo.replace("a", old, ["a2"])           # evicts b
        assert memo.get_or_compute("a", lambda: None) == ["a2"]
        assert len(memo) == 1
        assert memo.evictions == 2

    def test_lookup_counts_like_get_or_compute_and_computes_nothing(self):
        memo = fastpath.Memo("t-lookup")
        assert memo.lookup("k") is None
        assert memo.lookup("k", "absent") == "absent"
        assert (memo.hits, memo.misses, len(memo)) == (0, 2, 0)
        memo.put("k", 7)  # a store counts no lookup
        assert (memo.hits, memo.misses) == (0, 2)
        assert memo.lookup("k") == 7
        assert memo.get_or_compute("k", lambda: 8) == 7
        assert (memo.hits, memo.misses) == (2, 2)

    def test_put_keeps_the_capacity(self):
        memo = fastpath.Memo("t-put", max_entries=1)
        memo.put("a", 1)
        memo.put("b", 2)  # evicts a
        assert memo.lookup("a") is None
        assert memo.lookup("b") == 2
        assert memo.evictions == 1

    def test_clear_resets_counters(self):
        memo = fastpath.Memo("t-clear")
        memo.get_or_compute("a", lambda: 1)
        memo.get_or_compute("a", lambda: 1)
        memo.clear()
        assert len(memo) == 0
        assert memo.hits == 0 and memo.misses == 0


class TestDisabledContext:
    def test_bypasses_memo(self):
        memo = fastpath.Memo("t-disabled")
        calls = []
        with fastpath.disabled():
            assert not fastpath.enabled()
            for _ in range(2):
                memo.get_or_compute("k", lambda: calls.append(1) or 7)
        assert len(calls) == 2          # recomputed every time
        assert len(memo) == 0           # nothing stored
        assert fastpath.enabled()

    def test_replace_is_a_no_op(self):
        memo = fastpath.Memo("t-disabled-replace")
        old = memo.get_or_compute("k", lambda: ["old"])
        with fastpath.disabled():
            memo.replace("k", old, ["new"])
        assert memo.get_or_compute("k", lambda: None) is old

    def test_lookup_finds_nothing_and_put_stores_nothing(self):
        memo = fastpath.Memo("t-disabled-lookup")
        memo.put("k", 1)
        with fastpath.disabled():
            assert memo.lookup("k") is None
            memo.put("j", 2)
        assert (memo.hits, memo.misses, len(memo)) == (0, 0, 1)
        assert memo.lookup("k") == 1

    def test_nesting_restores(self):
        with fastpath.disabled():
            with fastpath.disabled():
                assert not fastpath.enabled()
            assert not fastpath.enabled()
        assert fastpath.enabled()

    def test_existing_entries_survive(self):
        memo = fastpath.Memo("t-survive")
        memo.get_or_compute("k", lambda: 1)
        with fastpath.disabled():
            memo.get_or_compute("k", lambda: 2)
        assert memo.get_or_compute("k", lambda: 3) == 1

    def test_stats_and_clear_all(self):
        memo = fastpath.Memo("t-stats")
        memo.get_or_compute("k", lambda: 1)
        assert fastpath.stats()["t-stats"] == {
            "hits": 0, "misses": 1, "evictions": 0, "entries": 1}
        fastpath.clear_all()
        assert fastpath.stats()["t-stats"]["entries"] == 0


class TestMemoThreadSafety:
    def test_threaded_eviction_pressure(self):
        """N threads, shared keys, capacity far below the key space."""
        memo = fastpath.Memo("t-threads", max_entries=8)
        n_threads, n_calls = 8, 400
        errors = []
        barrier = threading.Barrier(n_threads)

        def work(tid):
            barrier.wait()
            for i in range(n_calls):
                key = (tid * 7 + i) % 32
                value = memo.get_or_compute(  # repro: noqa[KEY002]
                    key, lambda k=key: k * 3,
                )
                if value != key * 3:
                    errors.append((tid, key, value))

        threads = [
            threading.Thread(target=work, args=(tid,))
            for tid in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(memo) <= 8
        # Every call increments exactly one of the two counters, even
        # under eviction pressure.
        assert memo.hits + memo.misses == n_threads * n_calls

    def test_after_fork_reinit_replaces_held_locks(self):
        """The at-fork hook swaps a (possibly held) lock for a fresh one."""
        memo = fastpath.Memo("t-fork")
        stale = memo._lock
        stale.acquire()
        try:
            fastpath._reinit_after_fork()
            assert memo._lock is not stale
            assert memo._lock.acquire(blocking=False)
            memo._lock.release()
        finally:
            stale.release()


@dataclasses.dataclass(frozen=True)
class _Point:
    x: int
    y: str = "z"


class _Color(str, enum.Enum):
    RED = "red"


class _Count(enum.IntEnum):
    TWO = 2


class _Text(str):
    pass


class TestStableHash:
    def test_deterministic(self):
        assert fastpath.stable_hash({"a": 1}) == fastpath.stable_hash({"a": 1})

    def test_content_not_identity(self):
        assert fastpath.stable_hash(_Point(1)) == fastpath.stable_hash(
            _Point(1))
        assert fastpath.stable_hash(_Point(1)) != fastpath.stable_hash(
            _Point(2))

    def test_nested_dataclasses(self):
        a = fastpath.stable_hash({"p": _Point(1), "q": [_Point(2)]})
        b = fastpath.stable_hash({"p": _Point(1), "q": [_Point(2)]})
        assert a == b

    @pytest.mark.parametrize("payload", [
        {"b": [1, 2.5, None, True], "a": "é\"\\\n"},
        {3: "int key", 1.5: "float key", True: "bool key"},
        {None: "null key"},
        {"p": _Point(1), "q": (_Point(2), [_Point(3, "ü")])},
        [math.nan, math.inf, -math.inf, -0.0, 1e300, 0],
        {"e": _Color.RED, "n": _Count.TWO, "s": _Text("sub")},
    ])
    def test_text_is_what_json_dumps_writes(self, payload):
        def plain(obj):
            return dataclasses.asdict(obj)

        expected = json.dumps(
            plain(payload) if dataclasses.is_dataclass(payload) else payload,
            sort_keys=True, separators=(",", ":"), default=plain,
        )
        assert fastpath.CanonicalEncoder().text(payload) == expected

    def test_no_text_names_the_path(self):
        with pytest.raises(ValueError, match=(
            r"payload\.q\[1\]\.x \(value of type set\) "
            r"is not serializable"
        )):
            fastpath.stable_hash({"q": [_Point(1), _Point({2})]})

    def test_frozen_instances_keep_their_text_unless_mutable_below(self):
        point = _Point(1)
        holder = _Point([1])
        first = fastpath.stable_hash([point, holder])
        assert fastpath.stable_hash([point, holder]) == first
        assert "_canonical_json" in vars(point)
        assert "_canonical_json" not in vars(holder)
        holder.x.append(2)
        assert fastpath.stable_hash([point, holder]) != first

    def test_matches_engine_cache_keys(self):
        """A copy keys like its original: config_key hashes content.
        (The on-disk key bytes are pinned in tests/engine/test_keys.py.)"""
        from repro.engine.cache import config_key
        from tests.conftest import make_tiny_config

        config = make_tiny_config()
        assert config_key(config) == config_key(
            dataclasses.replace(config))


class TestEncoderLayouts:
    def test_a_class_not_given_is_laid_out_once(self, monkeypatch):
        calls = []
        layout = fastpath._layout
        monkeypatch.setattr(
            fastpath, "_layout", lambda cls: calls.append(cls) or layout(cls),
        )
        encoder = fastpath.CanonicalEncoder()
        for x in range(3):  # a list field: the instance keeps no text
            encoder.text(_Point([x]))
        assert calls == [_Point]

    def test_threads_laying_out_new_classes_get_exact_texts(self):
        classes = [
            dataclasses.make_dataclass(f"_New{i}", [("a", int), ("b", list)])
            for i in range(24)
        ]
        encoder = fastpath.CanonicalEncoder()

        def work(tid):
            wrong = []
            for i in range(200):
                obj = classes[(tid * 5 + i) % len(classes)](i, [tid])
                if encoder.text(obj) != f'{{"a":{i},"b":[{tid}]}}':
                    wrong.append((tid, i))
            return wrong

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                wrong = list(pool.map(work, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert wrong == [[]] * 8

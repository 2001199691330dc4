"""Tests for the content-hash cache layer (no model evaluations here)."""

import dataclasses
import json
import threading

import pytest

from repro.engine import EvalCache, EvalRecord, config_key, evaluate_many
from repro.perf import SPLASH2_PROFILES

from tests.conftest import make_tiny_config


def record(key="k", tdp=10.0) -> EvalRecord:
    return EvalRecord(
        name="r", key=key, area_mm2=1.0, tdp_w=tdp, peak_dynamic_w=8.0,
        leakage_w=2.0, core_area_mm2=0.5, core_peak_dynamic_w=4.0,
        core_leakage_w=1.0,
    )


class TestConfigKey:
    def test_same_config_same_key(self):
        assert config_key(make_tiny_config()) == config_key(
            make_tiny_config())

    def test_independent_builds_share_keys(self):
        """Two structurally equal configs hash alike however built."""
        a = make_tiny_config(n_cores=2)
        b = dataclasses.replace(make_tiny_config(), n_cores=2)
        assert config_key(a) == config_key(b)

    @pytest.mark.parametrize("override", [
        {"n_cores": 2},
        {"node_nm": 32},
        {"clock_hz": 2.0e9},
        {"temperature_k": 340.0},
        {"name": "other"},
        {"whitespace_fraction": 0.13},
    ])
    def test_any_field_change_changes_key(self, override):
        assert config_key(make_tiny_config(**override)) != config_key(
            make_tiny_config())

    def test_nested_field_change_changes_key(self):
        base = make_tiny_config()
        changed = dataclasses.replace(
            base,
            core=dataclasses.replace(base.core, issue_width=2),
        )
        assert config_key(changed) != config_key(base)

    def test_workload_changes_key(self):
        config = make_tiny_config()
        assert config_key(config) != config_key(
            config, SPLASH2_PROFILES["lu"])
        assert config_key(config, SPLASH2_PROFILES["lu"]) != config_key(
            config, SPLASH2_PROFILES["fft"])


class TestEvalCacheMemory:
    def test_get_miss_then_hit(self):
        cache = EvalCache()
        assert cache.get("k") is None
        cache.put("k", record())
        hit = cache.get("k")
        assert hit == record()
        assert hit.from_cache is True
        assert (cache.hits, cache.misses) == (1, 1)

    def test_lru_eviction_drops_oldest(self):
        cache = EvalCache(max_entries=2)
        cache.put("a", record("a"))
        cache.put("b", record("b"))
        cache.get("a")  # refresh 'a'
        cache.put("c", record("c"))
        assert "a" in cache and "c" in cache
        assert "b" not in cache

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            EvalCache(max_entries=0)

    def test_put_stores_a_fresh_record_as_it_is(self):
        cache = EvalCache()
        fresh = record()
        cache.put("k", fresh)
        assert cache._records["k"] is fresh

    def test_put_clears_the_flag_of_a_served_record(self):
        cache = EvalCache()
        served = dataclasses.replace(record(), from_cache=True)
        cache.put("k", served)
        stored = cache._records["k"]
        assert stored.from_cache is False and stored == served
        assert served.from_cache is True  # the caller's copy is untouched
        assert cache.get("k").from_cache is True


class TestEvalCacheDisk:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = EvalCache(path=path)
        first.put("k1", record("k1", tdp=11.0))
        first.put("k2", record("k2", tdp=12.0))

        reloaded = EvalCache(path=path)
        assert len(reloaded) == 2
        assert reloaded.get("k1").tdp_w == pytest.approx(11.0)
        assert reloaded.get("k2").from_cache is True

    def test_fresh_and_served_records_round_trip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        fresh = record("a", tdp=11.0)
        served = dataclasses.replace(record("b", tdp=12.0), from_cache=True)
        first = EvalCache(path=path)
        first.put("a", fresh)
        first.put("b", served)
        assert [json.loads(line) for line in path.read_text().splitlines()] \
            == [{"key": "a", "record": fresh.to_dict()},
                {"key": "b", "record": served.to_dict()}]
        reloaded = EvalCache(path=path)
        assert reloaded.get("a") == fresh and reloaded.get("b") == served

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        EvalCache(path=path).put("good", record("good"))
        with path.open("a") as handle:
            handle.write("{not json\n")
            handle.write(json.dumps({"no": "key"}) + "\n")
        reloaded = EvalCache(path=path)
        assert len(reloaded) == 1
        assert reloaded.get("good") is not None

    @pytest.mark.parametrize("bad", [
        {"key": "bad", "record": None},
        {"key": "bad", "record": "x"},
        {"key": ["bad"], "record": record("bad").to_dict()},
        {"key": "bad", "record": {**record("bad").to_dict(), "tdp_w": "hot"}},
        {"key": "bad", "record": {**record("bad").to_dict(), "tdp_w": True}},
        {"key": "bad",
         "record": {**record("bad").to_dict(), "runtime_s": "slow"}},
    ], ids=["null-record", "string-record", "list-key", "string-metric",
            "bool-metric", "string-runtime"])
    def test_malformed_line_skipped_and_counted(self, tmp_path, bad):
        """A well-formed JSON line that is not a well-typed record is
        skipped like an unparsable one; the lines around it load."""
        path = tmp_path / "cache.jsonl"
        cache = EvalCache(path=path)
        cache.put("before", record("before"))
        with path.open("a") as handle:
            handle.write(json.dumps(bad) + "\n")
        cache.put("after", record("after"))

        reloaded = EvalCache(path=path)
        assert reloaded.corrupt_lines_skipped == 1
        assert len(reloaded) == 2
        assert reloaded.get("bad") is None
        assert reloaded.get("before") == record("before")
        assert reloaded.get("after") == record("after")

    def test_put_same_key_appends_once(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvalCache(path=path)
        cache.put("k", record("k", tdp=1.0))
        cache.put("k", record("k", tdp=2.0))
        lines = path.read_text().splitlines()
        assert len(lines) == 1

    def test_concurrent_puts_all_durable(self, tmp_path):
        """Threaded writers interleave whole lines, never spliced ones."""
        path = tmp_path / "cache.jsonl"
        cache = EvalCache(path=path)
        n_threads, per_thread = 8, 25

        def writer(worker: int) -> None:
            for i in range(per_thread):
                key = f"w{worker}-{i}"
                cache.put(  # repro: noqa[KEY002] -- synthetic keys
                    key, record(key, tdp=float(worker)),
                )

        threads = [
            threading.Thread(target=writer, args=(worker,))
            for worker in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        reloaded = EvalCache(path=path)
        assert reloaded.corrupt_lines_skipped == 0
        assert len(reloaded) == n_threads * per_thread
        for worker in range(n_threads):
            for i in range(per_thread):
                hit = reloaded.get(f"w{worker}-{i}")
                assert hit is not None
                assert hit.tdp_w == pytest.approx(float(worker))

    def test_truncated_trailing_line_counted(self, tmp_path):
        """A crash mid-append leaves a partial last line; load survives."""
        path = tmp_path / "cache.jsonl"
        cache = EvalCache(path=path)
        cache.put("whole", record("whole"))
        cache.put("casualty", record("casualty"))
        first, second = path.read_text().splitlines()
        path.write_text(first + "\n" + second[: len(second) // 2])

        reloaded = EvalCache(path=path)
        assert reloaded.corrupt_lines_skipped == 1
        assert len(reloaded) == 1
        assert reloaded.get("whole") is not None
        assert reloaded.get("casualty") is None

    def test_clear_keeps_disk(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = EvalCache(path=path)
        cache.put("k", record("k"))
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == cache.misses == 0
        assert EvalCache(path=path).get("k") is not None


class TestUnserializableConfigs:
    """A bad config value yields a named field path, not a deep traceback.

    ``niu`` carries no post-init validation, so it is the convenient
    slot for smuggling structurally broken values into an otherwise
    valid config.
    """

    def test_mapping_key_type_named(self):
        broken = dataclasses.replace(
            make_tiny_config(), niu={(1, 2): 3},
        )
        with pytest.raises(ValueError) as exc:
            config_key(broken)
        message = str(exc.value)
        assert "'tiny' cannot be content-hashed" in message
        assert "config.niu[(1, 2)]" in message
        assert "mapping key of type tuple" in message

    def test_circular_reference_named(self):
        loop: list = []
        loop.append(loop)
        broken = dataclasses.replace(make_tiny_config(), niu=loop)
        with pytest.raises(ValueError) as exc:
            config_key(broken)
        assert "config.niu[0] (circular reference)" in str(exc.value)

    def test_evaluate_many_surfaces_the_named_error(self):
        broken = dataclasses.replace(
            make_tiny_config(name="batch-bad"), niu={(1, 2): 3},
        )
        with pytest.raises(ValueError, match="config.niu") as exc:
            evaluate_many([broken], cache=None)
        assert "'batch-bad'" in str(exc.value)


class TestEvalRecord:
    def test_dict_round_trip(self):
        rec = record("k", tdp=42.0)
        again = EvalRecord.from_dict(rec.to_dict())
        assert again == rec

    def test_runtime_properties_none_without_workload(self):
        rec = record()
        assert rec.energy_j is None
        assert rec.edp is None
        assert rec.ed2p is None

    def test_runtime_property_chain(self):
        rec = dataclasses.replace(record(), runtime_s=2.0, power_w=10.0)
        assert rec.energy_j == pytest.approx(20.0)
        assert rec.edp == pytest.approx(40.0)
        assert rec.ed2p == pytest.approx(80.0)

    def test_leakage_fraction(self):
        assert record().leakage_fraction == pytest.approx(0.2)

    def test_from_cache_excluded_from_equality(self):
        assert dataclasses.replace(record(), from_cache=True) == record()

    @pytest.mark.parametrize("workload_metrics", [
        {},
        {"runtime_s": 2.0, "power_w": 10.0, "throughput_ips": 3.0e9},
    ])
    def test_to_dict_is_asdict_without_provenance(self, workload_metrics):
        rec = dataclasses.replace(
            record(), from_cache=True, backend="numpy", **workload_metrics,
        )
        want = dataclasses.asdict(rec)
        del want["from_cache"], want["backend"]
        assert list(rec.to_dict().items()) == list(want.items())

    def test_log_line_is_the_asdict_form(self, tmp_path):
        rec = dataclasses.replace(record(), runtime_s=2.0, power_w=10.0)
        path = tmp_path / "cache.jsonl"
        EvalCache(path=path).put("k", rec)
        want = dataclasses.asdict(rec)
        del want["from_cache"], want["backend"]
        assert path.read_text() == json.dumps(
            {"key": "k", "record": want}, sort_keys=True,
        ) + "\n"
        assert EvalCache(path=path).get("k") == rec


class TestEvalCacheThreadSafety:
    def test_concurrent_writers_keep_log_and_counters_exact(self, tmp_path):
        """Threads racing put/get: whole JSONL lines, exact accounting."""
        from repro.engine.cache import EvalCache

        log = tmp_path / "cache.jsonl"
        cache = EvalCache(max_entries=16, path=log)
        n_threads, per_thread = 8, 40
        barrier = threading.Barrier(n_threads)

        def work(tid):
            barrier.wait()
            for i in range(per_thread):
                key = f"{tid}-{i}"
                cache.put(  # repro: noqa[KEY002] -- synthetic keys
                    key, record(key=key),
                )
                cache.get(key)

        threads = [
            threading.Thread(target=work, args=(tid,))
            for tid in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = n_threads * per_thread
        # Every key was new, so every put appended one whole line; the
        # O_APPEND single-write protocol must never splice lines.
        lines = log.read_text().splitlines()
        assert len(lines) == total
        for line in lines:
            entry = json.loads(line)
            assert set(entry) == {"key", "record"}
        # A fresh load sees zero corruption and every record.
        reloaded = EvalCache(max_entries=2 * total, path=log)
        assert reloaded.corrupt_lines_skipped == 0
        assert len(reloaded) == total
        # Each get incremented exactly one counter.
        assert cache.hits + cache.misses == total
        assert len(cache) <= 16

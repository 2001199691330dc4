"""Tests for the public batch API: ordering, parity, caching, dedup."""

import pytest

from repro.engine import EvalCache, evaluate_many
from repro.perf import SPLASH2_PROFILES

from tests.conftest import make_tiny_config


@pytest.fixture(scope="module")
def trio():
    """Three distinct cheap configs."""
    return [make_tiny_config(n_cores=n) for n in (1, 2, 3)]


@pytest.fixture(scope="module")
def serial_records(trio):
    return evaluate_many(trio, jobs=1, cache=None)


class TestOrderingAndParity:
    def test_results_in_input_order(self, trio, serial_records):
        assert [r.name for r in serial_records] == ["tiny"] * 3
        areas = [r.area_mm2 for r in serial_records]
        assert areas == sorted(areas)  # more cores, more area

    def test_parallel_identical_to_serial(self, trio, serial_records):
        parallel = evaluate_many(trio, jobs=2, cache=None)
        assert parallel == serial_records

    def test_parallel_identical_for_validation_presets(self):
        from repro.config import presets

        chips = [build() for build in presets.VALIDATION_PRESETS.values()]
        serial = evaluate_many(chips, jobs=1, cache=None)
        parallel = evaluate_many(chips, jobs=4, cache=None)
        assert parallel == serial
        assert [r.name for r in parallel] == [c.name for c in chips]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            evaluate_many([])


class TestCacheIntegration:
    def test_misses_then_hits(self, trio, serial_records):
        cache = EvalCache()
        first = evaluate_many(trio, cache=cache)
        assert cache.misses == 3
        assert not any(r.from_cache for r in first)
        assert first == serial_records

        second = evaluate_many(trio, cache=cache)
        assert cache.hits == 3
        assert all(r.from_cache for r in second)
        assert second == first

    def test_batch_dedup_evaluates_once(self, trio):
        cache = EvalCache()
        records = evaluate_many(
            [trio[0], trio[1], trio[0]], cache=cache)
        assert cache.misses == 2
        assert records[0] == records[2]

    def test_overlapping_grids_share_points(self, trio):
        cache = EvalCache()
        evaluate_many(trio[:2], cache=cache)
        evaluate_many(trio[1:], cache=cache)
        assert cache.misses == 3  # the overlap point was free
        assert cache.hits == 1


class TestWorkloadMetrics:
    def test_workload_fills_runtime_metrics(self):
        config = make_tiny_config()
        record, = evaluate_many(
            [config], workload=SPLASH2_PROFILES["lu"], cache=None)
        assert record.runtime_s > 0
        assert record.power_w > 0
        assert record.throughput_ips > 0
        assert record.edp > 0

    def test_no_workload_leaves_runtime_none(self, serial_records):
        for record in serial_records:
            assert record.runtime_s is None
            assert record.power_w is None
            assert record.throughput_ips is None

"""Backend resolution, group orchestration, and engine integration."""

import dataclasses

import pytest

from repro import batch
from repro.config.loader import chip_key
from repro.engine import EvalCache, config_keys, evaluate_many
from tests.conftest import make_tiny_config

needs_numpy = pytest.mark.skipif(
    not batch.have_numpy(), reason="numpy not installed"
)

pytestmark = pytest.mark.usefixtures("fresh_batch_state")


def frequency_grid(n, base_config=None):
    """n copies of the tiny config differing only in clock_hz."""
    base = base_config or make_tiny_config()
    return [
        dataclasses.replace(base, clock_hz=1.0e9 * (1.0 + 0.1 * i))
        for i in range(n)
    ]


def keyed(configs):
    return [
        (*config_keys(config, None), config) for config in configs
    ]


class TestResolveBackend:
    def test_none_and_scalar_resolve_to_scalar(self):
        assert batch.resolve_backend(None) == "scalar"
        assert batch.resolve_backend("scalar") == "scalar"

    def test_unknown_backend_is_an_error(self):
        with pytest.raises(ValueError, match="unknown backend 'warp'"):
            batch.resolve_backend("warp")

    @needs_numpy
    def test_auto_and_numpy_resolve_to_numpy(self):
        assert batch.resolve_backend("auto") == "numpy"
        assert batch.resolve_backend("numpy") == "numpy"

    def test_numpy_degrades_to_scalar_without_the_extra(self, monkeypatch):
        monkeypatch.setattr("repro.batch._numpy._np", None)
        assert batch.resolve_backend("numpy") == "scalar"
        assert batch.counters()["numpy_unavailable"] == 1
        # auto degrades silently, without the counter.
        assert batch.resolve_backend("auto") == "scalar"
        assert batch.counters()["numpy_unavailable"] == 1


class TestChipKey:
    def test_the_clock_does_not_change_the_key(self):
        base = make_tiny_config()
        faster = dataclasses.replace(base, clock_hz=2.5e9)
        (_, key, _), (_, faster_key, _) = keyed([base, faster])
        assert key == faster_key == chip_key(base)

    def test_temperature_and_structure_change_the_key(self):
        base = make_tiny_config()
        for change in ({"temperature_k": base.temperature_k + 20.0},
                       {"n_cores": 2}):
            changed = dataclasses.replace(base, **change)
            assert keyed([changed])[0][1] != keyed([base])[0][1]


class TestEvaluateBatch:
    def test_without_numpy_everything_is_leftover(self, monkeypatch):
        monkeypatch.setattr("repro.batch._numpy._np", None)
        items = keyed(frequency_grid(4))
        records, leftovers = batch.evaluate_batch(items)
        assert records == {}
        assert leftovers == items

    @needs_numpy
    def test_small_groups_fall_back(self):
        items = keyed(frequency_grid(3))
        records, leftovers = batch.evaluate_batch(items)
        assert records == {}
        assert leftovers == items
        assert batch.counters()["points_fallback"] == 3
        assert batch.counters()["groups_compiled"] == 0

    @needs_numpy
    def test_group_compiles_once_and_covers_every_point(self):
        items = keyed(frequency_grid(6))
        records, leftovers = batch.evaluate_batch(items)
        assert leftovers == []
        assert set(records) == {key for key, _, _ in items}
        assert all(
            record.backend == "numpy" and not record.from_cache
            for record in records.values()
        )
        stats = batch.counters()
        assert stats["groups_compiled"] == 1
        assert stats["points_vectorized"] == 6
        assert stats["compile_probes"] > 0

    @needs_numpy
    def test_repeat_grid_reuses_the_compiled_group(self):
        items = keyed(frequency_grid(6))
        batch.evaluate_batch(items)
        probes_first = batch.counters()["compile_probes"]
        records, leftovers = batch.evaluate_batch(items)
        assert leftovers == []
        assert len(records) == 6
        assert batch.counters()["compile_probes"] == probes_first

    @needs_numpy
    def test_mixed_structures_partition_into_groups(self):
        narrow = frequency_grid(5)
        wide = frequency_grid(
            5, make_tiny_config(n_cores=2, name="tiny-2c")
        )
        records, leftovers = batch.evaluate_batch(keyed(narrow + wide))
        assert leftovers == []
        assert len(records) == 10
        assert batch.counters()["groups_compiled"] == 2

    @needs_numpy
    def test_each_temperature_is_a_group(self):
        cool = frequency_grid(4)
        hot = [dataclasses.replace(config, temperature_k=380.0)
               for config in cool]
        records, leftovers = batch.evaluate_batch(keyed(cool + hot))
        assert leftovers == []
        assert len(records) == 8
        assert batch.counters()["groups_compiled"] == 2


@needs_numpy
class TestEvaluateManyIntegration:
    def test_batched_points_hit_the_cache_per_key(self):
        cache = EvalCache()
        configs = frequency_grid(6)
        first = evaluate_many(configs, cache=cache, backend="numpy")
        assert all(r.backend == "numpy" for r in first)
        assert cache.misses == 6
        assert cache.hits == 0
        again = evaluate_many(configs, cache=cache, backend="numpy")
        assert all(r.from_cache for r in again)
        assert cache.hits == 6
        # Scalar re-evaluation agrees within the backend's tolerance.
        scalar = evaluate_many(configs, cache=None, backend="scalar")
        for a, b in zip(first, scalar):
            assert a.tdp_w == pytest.approx(b.tdp_w, rel=1e-9)

    def test_obs_metrics_report_batch_counters(self):
        from repro.engine import metrics_snapshot

        configs = frequency_grid(6)
        evaluate_many(configs, cache=None, backend="numpy")
        snapshot = metrics_snapshot()
        assert snapshot.counters["batch.points_vectorized"] == 6
        assert snapshot.counters["batch.groups_compiled"] == 1

    def test_workload_points_stay_on_the_scalar_path(self):
        from repro.perf.workload import SPLASH2_PROFILES

        workload = SPLASH2_PROFILES["fft"]
        configs = frequency_grid(4)
        records = evaluate_many(
            configs, workload=workload, cache=None, backend="numpy",
        )
        assert all(r.backend == "scalar" for r in records)
        assert batch.counters()["points_vectorized"] == 0

    def test_backend_field_is_not_serialized(self):
        records = evaluate_many(
            frequency_grid(4), cache=None, backend="numpy",
        )
        payload = records[0].to_dict()
        assert "backend" not in payload
        assert "from_cache" not in payload

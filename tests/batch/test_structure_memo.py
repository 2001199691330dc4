"""One compiled fit per chip structure, grown over clock/temperature.

The backend keys its compile memo by the structure alone and keeps the
domain (clock interval x temperatures) each fit was validated over: a
group inside it costs no probe, a group reaching outside it compiles
the union once, and a group the union cannot validate falls back to
the exact scalar path without losing the earlier domain.
"""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import batch, fastpath
from repro.chip import Processor
from repro.config.presets import VALIDATION_PRESETS
from repro.config.schema import SharedCacheConfig
from repro.engine import SweepSpec, evaluate_many, run_sweep

from tests.conftest import make_tiny_config

needs_numpy = pytest.mark.skipif(
    not batch.have_numpy(), reason="numpy not installed"
)

pytestmark = [needs_numpy, pytest.mark.usefixtures("fresh_batch_state")]

PARITY_REL_TOL = 1e-9


def window(config, lo_hz, hi_hz, n=6, temperatures_k=None):
    """``n`` clocks from ``lo_hz`` to ``hi_hz`` at each temperature."""
    temperatures_k = temperatures_k or (config.temperature_k,)
    step = (hi_hz - lo_hz) / (n - 1)
    return [
        dataclasses.replace(
            config, clock_hz=lo_hz + step * i, temperature_k=t_k,
        )
        for t_k in temperatures_k
        for i in range(n)
    ]


def assert_within_tolerance(configs, records, label=""):
    scalar = evaluate_many(configs, cache=None, backend="scalar")
    for ref, got in zip(scalar, records):
        assert got.backend == "numpy", label
        for metric in batch.METRICS:
            assert getattr(got, metric) == pytest.approx(
                getattr(ref, metric), rel=PARITY_REL_TOL,
            ), f"{label}: {metric}"


def probes():
    return batch.counters()["compile_probes"]


def compiles():
    return batch.counters()["groups_compiled"]


def l2_config():
    """A tiny chip with a shared L2, so the clock response has a kink."""
    return make_tiny_config(
        name="tiny-l2", l2=SharedCacheConfig(capacity_bytes=256 * 1024),
    )


def kink_hz(config):
    cache = Processor(config).parts.l2.cache
    return 1.0 / max(cache.access_time, cache.cycle_time)


class TestDomainGrowth:
    def test_window_inside_the_domain_adds_no_probe(self):
        base = make_tiny_config()
        evaluate_many(window(base, 1.0e9, 2.0e9), cache=None,
                      backend="numpy")
        assert compiles() == 1
        spent = probes()
        inside = window(base, 1.2e9, 1.8e9, n=9)
        records = evaluate_many(inside, cache=None, backend="numpy")
        assert probes() == spent
        assert compiles() == 1
        assert_within_tolerance(inside, records, "inside")

    def test_window_partly_outside_adds_one_compile(self):
        base = make_tiny_config()
        evaluate_many(window(base, 1.0e9, 2.0e9), cache=None,
                      backend="numpy")
        wider = window(base, 1.5e9, 2.5e9)
        records = evaluate_many(wider, cache=None, backend="numpy")
        assert compiles() == 2
        assert_within_tolerance(wider, records, "wider")
        # The union now covers both windows: neither costs a probe.
        spent = probes()
        evaluate_many(window(base, 1.1e9, 2.4e9, n=7), cache=None,
                      backend="numpy")
        assert probes() == spent

    def test_new_temperature_grows_the_domain(self):
        base = make_tiny_config()
        evaluate_many(window(base, 1.0e9, 2.0e9), cache=None,
                      backend="numpy")
        hotter = window(base, 1.0e9, 2.0e9, temperatures_k=(380.0,))
        records = evaluate_many(hotter, cache=None, backend="numpy")
        assert compiles() == 2
        assert_within_tolerance(hotter, records, "hotter")

    @pytest.mark.parametrize("order", ["AB", "BA"])
    def test_windows_across_the_kink_in_either_order(self, order):
        config = l2_config()
        kink = kink_hz(config)
        windows = {
            "A": window(config, 0.5 * kink, 0.9 * kink,
                        temperatures_k=(340.0, 360.0)),
            "B": window(config, 0.8 * kink, 1.5 * kink,
                        temperatures_k=(360.0, 380.0)),
        }
        for name in order:
            records = evaluate_many(windows[name], cache=None,
                                    backend="numpy")
            assert_within_tolerance(windows[name], records, name)
        assert batch.counters()["points_fallback"] == 0


class TestSmallGroups:
    @pytest.mark.parametrize("n_points", [1, 3])
    def test_known_structure_vectorizes_without_probes(self, n_points):
        base = make_tiny_config()
        evaluate_many(window(base, 1.0e9, 2.0e9), cache=None,
                      backend="numpy")
        spent = probes()
        small = window(base, 1.1e9, 1.9e9, n=max(n_points, 2))[:n_points]
        records = evaluate_many(small, cache=None, backend="numpy")
        assert probes() == spent
        assert batch.counters()["points_vectorized"] == 6 + n_points
        assert_within_tolerance(small, records, f"{n_points} point(s)")

    @pytest.mark.parametrize("n_points", [1, 3])
    def test_unknown_structure_stays_scalar(self, n_points):
        small = window(make_tiny_config(), 1.1e9, 1.9e9,
                       n=max(n_points, 2))[:n_points]
        records = evaluate_many(small, cache=None, backend="numpy")
        assert all(record.backend == "scalar" for record in records)
        assert probes() == 0
        assert batch.counters()["points_fallback"] == n_points


class TestFallback:
    def test_thermal_fallback_keeps_the_earlier_domain(self):
        # Niagara2's array sizing shifts with temperature, so no fit
        # spans two temperatures: the union and the request's own
        # domain both fall back, the frequency-only fit survives.
        config = VALIDATION_PRESETS["niagara2"]()
        f0, t0 = config.clock_hz, config.temperature_k
        clocks = window(config, 0.9 * f0, 1.1 * f0)
        thermal = window(config, 0.9 * f0, 1.1 * f0, n=3,
                         temperatures_k=(t0, t0 + 20.0))
        evaluate_many(clocks, cache=None, backend="numpy")
        assert batch.counters()["points_vectorized"] == len(clocks)

        fallback = evaluate_many(thermal, cache=None, backend="numpy")
        scalar = evaluate_many(thermal, cache=None, backend="scalar")
        assert fallback == scalar
        assert all(record.backend == "scalar" for record in fallback)
        assert batch.counters()["groups_fallback"] == 1

        spent = probes()
        again = evaluate_many(clocks, cache=None, backend="numpy")
        assert all(record.backend == "numpy" for record in again)
        evaluate_many(thermal, cache=None, backend="numpy")
        assert probes() == spent
        assert batch.counters()["groups_fallback"] == 2

    def test_union_fallback_compiles_the_group_alone(self):
        # Each niagara2 temperature compiles on its own, but no union
        # of two does: a group that vectorizes alone still vectorizes.
        config = VALIDATION_PRESETS["niagara2"]()
        f0, t0 = config.clock_hz, config.temperature_k
        cool = window(config, 0.9 * f0, 1.1 * f0)
        hot = window(config, 0.9 * f0, 1.1 * f0,
                     temperatures_k=(t0 + 20.0,))
        evaluate_many(cool, cache=None, backend="numpy")
        cool_probes = probes()
        records = evaluate_many(hot, cache=None, backend="numpy")
        assert_within_tolerance(hot, records, "hot alone")
        assert batch.counters()["groups_compiled"] == 2

        # The hot fit replaced the cool one; the failed union is
        # remembered, so going back costs exactly the cool compile.
        spent = probes()
        evaluate_many(hot, cache=None, backend="numpy")
        assert probes() == spent
        records = evaluate_many(cool, cache=None, backend="numpy")
        assert_within_tolerance(cool, records, "cool again")
        assert probes() - spent == cool_probes
        assert batch.counters()["groups_compiled"] == 3
        assert batch.counters()["groups_fallback"] == 0

    def test_nan_probe_falls_back_bit_exact(self, monkeypatch):
        from repro.batch import compile as compile_mod

        real = compile_mod.tdp_metrics

        def poisoned(processor):
            sample = real(processor)
            sample["leakage_w"] = math.nan
            return sample

        monkeypatch.setattr(compile_mod, "tdp_metrics", poisoned)
        configs = window(make_tiny_config(), 1.0e9, 2.0e9)
        records = evaluate_many(configs, cache=None, backend="numpy")
        assert records == evaluate_many(configs, cache=None,
                                        backend="scalar")
        stats = batch.counters()
        assert stats["groups_fallback"] == 1
        assert stats["points_vectorized"] == 0
        assert stats["compile_probes"] == 1

    def test_evaluate_refuses_points_outside_its_domain(self):
        compiled = batch.compile_group(
            make_tiny_config(), [1.0e9, 2.0e9], [350.0, 360.0],
        )
        np = batch.get_numpy()
        assert compiled.evaluate([(1.5e9, 350.0)], np)["tdp_w"].size == 1
        for point in [(2.5e9, 360.0), (0.5e9, 360.0), (1.5e9, 370.0)]:
            with pytest.raises(ValueError, match="outside the compiled"):
                compiled.evaluate([(1.5e9, 360.0), point], np)


class TestMemoDiscipline:
    def test_disabled_fast_path_recompiles_every_group(self):
        configs = window(make_tiny_config(), 1.0e9, 2.0e9)
        with fastpath.disabled():
            evaluate_many(configs, cache=None, backend="numpy")
            evaluate_many(configs, cache=None, backend="numpy")
        assert compiles() == 2

    def test_clear_all_forgets_the_structure(self):
        configs = window(make_tiny_config(), 1.0e9, 2.0e9)
        evaluate_many(configs, cache=None, backend="numpy")
        fastpath.clear_all()
        evaluate_many(configs, cache=None, backend="numpy")
        assert compiles() == 2

    def test_memo_is_visible_in_metrics(self):
        from repro.engine import metrics_snapshot

        evaluate_many(window(make_tiny_config(), 1.0e9, 2.0e9),
                      cache=None, backend="numpy")
        counters = metrics_snapshot().counters
        assert counters["memo.batch.compiled_groups.entries"] == 1

    def test_threads_sweeping_overlapping_windows(self):
        # The serve /sweep shape: executor threads growing one
        # structure's domain at once.
        base = make_tiny_config()
        specs = [
            SweepSpec.from_axes(base, {
                "clock_hz": [lo * 1e9 + 0.1e9 * i for i in range(8)],
                "temperature_k": [350.0, 370.0],
            })
            for lo in (1.0, 1.3, 1.6, 1.9)
        ]
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(
                lambda spec: run_sweep(spec, cache=None, backend="numpy"),
                specs,
            ))
        for spec, sweep in zip(specs, results):
            configs = [point.config for point in sweep]
            assert_within_tolerance(
                configs, [point.record for point in sweep], "threaded",
            )

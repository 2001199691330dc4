"""One compiled fit per built chip, grown over its clock interval.

The backend keys its compile memo by the chip key, as ``chip.parts``
keys the built chip, and keeps the clock interval each fit was
validated over: a group inside it costs no probe, a group reaching
outside it compiles the union once, and a group the union cannot
validate falls back to the exact scalar path without losing the
earlier domain. A new temperature is a new chip with a fit of its own.
"""

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import batch, fastpath
from repro.batch.backend import _CHIPS
from repro.chip import Processor
from repro.chip.processor import _PARTS
from repro.config.loader import chip_key
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


def poison_clocks(monkeypatch, lo_hz, hi_hz):
    """Compile probes at clocks in ``[lo_hz, hi_hz]`` read NaN: a clock
    dependence no fit can validate. The scalar path is untouched."""
    from repro.batch import compile as compile_mod

    real = compile_mod.tdp_metrics

    def poisoned(chip):
        sample = real(chip)
        if lo_hz <= chip.config.clock_hz <= hi_hz:
            sample["tdp_w"] = math.nan
        return sample

    monkeypatch.setattr(compile_mod, "tdp_metrics", poisoned)


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
        # A new temperature is a new built chip: the backend's domain
        # grows by a fit of its own, and the first one stays.
        base = make_tiny_config()
        evaluate_many(window(base, 1.0e9, 2.0e9), cache=None,
                      backend="numpy")
        hotter = window(base, 1.0e9, 2.0e9, temperatures_k=(380.0,))
        records = evaluate_many(hotter, cache=None, backend="numpy")
        assert compiles() == 2
        assert_within_tolerance(hotter, records, "hotter")
        spent = probes()
        evaluate_many(window(base, 1.2e9, 1.8e9), cache=None,
                      backend="numpy")
        assert probes() == spent

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
    def test_failed_window_keeps_the_earlier_domain(self, monkeypatch):
        # No fit reaches 2.5 GHz: the union and the request's own
        # window both fall back, and the earlier fit survives.
        poison_clocks(monkeypatch, 2.5e9, math.inf)
        base = make_tiny_config()
        clocks = window(base, 1.0e9, 2.0e9)
        beyond = window(base, 2.2e9, 2.6e9)
        evaluate_many(clocks, cache=None, backend="numpy")
        assert batch.counters()["points_vectorized"] == len(clocks)

        fallback = evaluate_many(beyond, cache=None, backend="numpy")
        scalar = evaluate_many(beyond, cache=None, backend="scalar")
        assert fallback == scalar
        assert all(record.backend == "scalar" for record in fallback)
        assert batch.counters()["groups_fallback"] == 1

        spent = probes()
        again = evaluate_many(clocks, cache=None, backend="numpy")
        assert all(record.backend == "numpy" for record in again)
        evaluate_many(beyond, cache=None, backend="numpy")
        assert probes() == spent
        assert batch.counters()["groups_fallback"] == 2

    def test_union_fallback_compiles_the_group_alone(self, monkeypatch):
        # Only the union's midpoint (1.7 GHz) reaches the poisoned
        # band: each window compiles alone, but no fit spans both.
        poison_clocks(monkeypatch, 1.6e9, 1.8e9)
        base = make_tiny_config()
        low = window(base, 1.0e9, 1.4e9)
        high = window(base, 2.0e9, 2.4e9)
        evaluate_many(low, cache=None, backend="numpy")
        low_probes = probes()
        records = evaluate_many(high, cache=None, backend="numpy")
        assert_within_tolerance(high, records, "high alone")
        assert batch.counters()["groups_compiled"] == 2

        # The high fit replaced the low one; the failed union is
        # remembered, so going back costs exactly the low compile.
        spent = probes()
        evaluate_many(high, cache=None, backend="numpy")
        assert probes() == spent
        records = evaluate_many(low, cache=None, backend="numpy")
        assert_within_tolerance(low, records, "low again")
        assert probes() - spent == low_probes
        assert batch.counters()["groups_compiled"] == 3
        assert batch.counters()["groups_fallback"] == 0

    def test_nan_probe_falls_back_bit_exact(self, monkeypatch):
        poison_clocks(monkeypatch, 0.0, math.inf)
        configs = window(make_tiny_config(), 1.0e9, 2.0e9)
        records = evaluate_many(configs, cache=None, backend="numpy")
        assert records == evaluate_many(configs, cache=None,
                                        backend="scalar")
        stats = batch.counters()
        assert stats["groups_fallback"] == 1
        assert stats["points_vectorized"] == 0
        assert stats["compile_probes"] == 1

    def test_evaluate_refuses_points_outside_its_domain(self):
        compiled = batch.compile_group(make_tiny_config(), 1.0e9, 2.0e9)
        np = batch.get_numpy()
        assert compiled.evaluate([1.5e9], np)["tdp_w"].size == 1
        for clock in (2.5e9, 0.5e9):
            with pytest.raises(ValueError, match="outside the compiled"):
                compiled.evaluate([1.5e9, clock], np)


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

    def test_memo_is_keyed_as_the_built_chips(self):
        configs = window(make_tiny_config(), 1.0e9, 2.0e9,
                         temperatures_k=(340.0, 360.0, 380.0))
        evaluate_many(configs, cache=None, backend="numpy")
        keys = {chip_key(config) for config in configs}
        assert len(keys) == 3
        for key in keys:
            assert _CHIPS.lookup(key) is not None
            assert _PARTS.lookup(key) is not None

    def test_memo_is_visible_in_metrics(self):
        from repro.engine import metrics_snapshot

        evaluate_many(window(make_tiny_config(), 1.0e9, 2.0e9),
                      cache=None, backend="numpy")
        counters = metrics_snapshot().counters
        assert counters["memo.batch.compiled_groups.entries"] == 1

    def test_threads_sweeping_overlapping_windows(self):
        # The serve /sweep shape: executor threads growing the same
        # chips' domains at once.
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

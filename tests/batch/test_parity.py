"""Numpy-vs-scalar parity over the four validation presets.

The batch backend's contract: ``backend="scalar"`` is bit-identical to
the default path, and ``backend="numpy"`` agrees with it within 1e-9
relative on every reported metric. This suite enforces both on the
published validation configs (the same chips the goldens gate checks),
over grids large enough to engage the group compiler rather than the
small-group fallback: clock grids, and thermal grids, where each
temperature is a built chip of its own (niagara2's array sizing steps
between 365 and 370 K). A group the compiler *cannot* validate falls
back to bit-exact scalar instead of approximating.
"""

import dataclasses

import pytest

from repro import batch
from repro.config.presets import VALIDATION_PRESETS
from repro.engine import evaluate_many

needs_numpy = pytest.mark.skipif(
    not batch.have_numpy(), reason="numpy not installed"
)

pytestmark = pytest.mark.usefixtures("fresh_batch_state")

#: Backend promise from the package contract (see repro/batch/__init__).
PARITY_REL_TOL = 1e-9

METRIC_FIELDS = (
    "area_mm2",
    "tdp_w",
    "peak_dynamic_w",
    "leakage_w",
    "core_area_mm2",
    "core_peak_dynamic_w",
    "core_leakage_w",
)


def frequency_grid(config):
    """6 frequencies at the preset's temperature — the DVFS sweep shape."""
    return [
        dataclasses.replace(config, clock_hz=config.clock_hz * step)
        for step in (0.8, 0.9, 0.95, 1.0, 1.1, 1.25)
    ]


def thermal_grid(config, temperatures_k=None):
    """4 frequencies x 3 temperatures: one group per temperature."""
    t0 = config.temperature_k
    return [
        dataclasses.replace(
            config, clock_hz=config.clock_hz * step, temperature_k=t_k,
        )
        for t_k in temperatures_k or (t0, t0 + 20.0, t0 - 15.0)
        for step in (0.9, 0.95, 1.0, 1.1)
    ]


def assert_parity(scalar, vectorized, label):
    for ref, got in zip(scalar, vectorized):
        assert got.backend == "numpy"
        assert got.key == ref.key
        for field in METRIC_FIELDS:
            assert getattr(got, field) == pytest.approx(
                getattr(ref, field), rel=PARITY_REL_TOL,
            ), f"{label}: {field} out of tolerance"


class TestScalarBackendIsTheDefaultPath:
    def test_scalar_request_is_bit_identical(self, tiny_config_factory):
        configs = thermal_grid(tiny_config_factory())
        default = evaluate_many(configs, cache=None)
        scalar = evaluate_many(configs, cache=None, backend="scalar")
        for a, b in zip(default, scalar):
            for field in METRIC_FIELDS:
                assert getattr(a, field) == getattr(b, field)
            assert b.backend == "scalar"


@needs_numpy
@pytest.mark.parametrize("preset", sorted(VALIDATION_PRESETS))
class TestNumpyParityOnValidationPresets:
    def test_frequency_grid_within_tolerance(self, preset):
        configs = frequency_grid(VALIDATION_PRESETS[preset]())
        scalar = evaluate_many(configs, cache=None, backend="scalar")
        vectorized = evaluate_many(configs, cache=None, backend="numpy")
        assert batch.counters()["points_vectorized"] == len(configs), (
            f"{preset}: grid fell back to scalar instead of vectorizing"
        )
        assert_parity(scalar, vectorized, preset)

    def test_thermal_grid_within_tolerance(self, preset):
        configs = thermal_grid(VALIDATION_PRESETS[preset]())
        scalar = evaluate_many(configs, cache=None, backend="scalar")
        vectorized = evaluate_many(configs, cache=None, backend="numpy")
        assert batch.counters()["points_vectorized"] == len(configs), (
            f"{preset}: thermal grid fell back to scalar"
        )
        assert batch.counters()["groups_compiled"] == 3
        assert_parity(scalar, vectorized, f"{preset} thermal")


@needs_numpy
class TestTemperatureAxis:
    def test_thermal_grid_parity(self, tiny_config_factory):
        configs = thermal_grid(tiny_config_factory())
        scalar = evaluate_many(configs, cache=None, backend="scalar")
        vectorized = evaluate_many(configs, cache=None, backend="numpy")
        assert batch.counters()["points_vectorized"] == len(configs)
        assert batch.counters()["groups_compiled"] == 3
        assert_parity(scalar, vectorized, "tiny thermal grid")

    def test_grid_across_a_sizing_step_vectorizes(self):
        # Niagara2's array search picks another organization between
        # 365 and 370 K, so its area steps there: each temperature is
        # its own built chip, fitted at its own temperature.
        configs = thermal_grid(VALIDATION_PRESETS["niagara2"](),
                               temperatures_k=(365.0, 367.5, 370.0))
        scalar = evaluate_many(configs, cache=None, backend="scalar")
        vectorized = evaluate_many(configs, cache=None, backend="numpy")
        assert scalar[0].area_mm2 != scalar[-1].area_mm2
        assert batch.counters()["points_vectorized"] == len(configs)
        assert_parity(scalar, vectorized, "niagara2 365-370 K")

    def test_unvalidatable_group_falls_back_bit_exact(self, monkeypatch):
        # A compiler that does not know the shared cache's kink cannot
        # fit a window across it: the midpoint check must catch that
        # and hand the group to the scalar path rather than ship a
        # wrong closed form.
        from repro.batch import compile as compile_mod

        monkeypatch.setattr(
            compile_mod, "_frequency_boundaries",
            lambda processor, f_lo, f_hi: [f_lo, f_hi],
        )
        config = VALIDATION_PRESETS["niagara2"]()
        configs = [  # 0.98 to 1.54 GHz, across the kink near 1.09 GHz
            dataclasses.replace(config, clock_hz=config.clock_hz * step)
            for step in (0.7, 0.8, 0.9, 1.0, 1.1)
        ]
        scalar = evaluate_many(configs, cache=None, backend="scalar")
        fallback = evaluate_many(configs, cache=None, backend="numpy")
        stats = batch.counters()
        assert stats["groups_fallback"] == 1
        assert stats["points_fallback"] == len(configs)
        assert stats["points_vectorized"] == 0
        for ref, got in zip(scalar, fallback):
            assert got.backend == "scalar"
            for field in METRIC_FIELDS:
                assert getattr(got, field) == getattr(ref, field)

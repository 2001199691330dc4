"""Numpy-vs-scalar parity over the four validation presets.

The batch backend's contract: ``backend="scalar"`` is bit-identical to
the default path, and ``backend="numpy"`` agrees with it within 1e-9
relative on every reported metric. This suite enforces both on the
published validation configs (the same chips the goldens gate checks),
over grids large enough to engage the group compiler rather than the
small-group fallback — and checks that a group the compiler *cannot*
validate (niagara2's area shifts with temperature through a discrete
sizing choice) falls back to bit-exact scalar instead of approximating.
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


def thermal_grid(config):
    """3 frequencies x 2 temperatures — exercises the leakage fit."""
    return [
        dataclasses.replace(
            config,
            clock_hz=config.clock_hz * step,
            temperature_k=config.temperature_k + dt_k,
        )
        for dt_k in (0.0, 20.0)
        for step in (0.9, 1.0, 1.1)
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


@needs_numpy
class TestTemperatureAxis:
    def test_thermal_grid_parity(self, tiny_config_factory):
        configs = thermal_grid(tiny_config_factory())
        scalar = evaluate_many(configs, cache=None, backend="scalar")
        vectorized = evaluate_many(configs, cache=None, backend="numpy")
        assert batch.counters()["points_vectorized"] == len(configs)
        assert_parity(scalar, vectorized, "tiny thermal grid")

    def test_unvalidatable_group_falls_back_bit_exact(self):
        # Niagara2's array sizing re-optimizes under the hotter leakage
        # profile, so area is *not* temperature-invariant there; the
        # compiler must detect that and hand the group to the scalar
        # path rather than ship a wrong closed form.
        configs = thermal_grid(VALIDATION_PRESETS["niagara2"]())
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

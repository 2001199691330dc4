"""Integration tests for the temperature extension experiment (Niagara2)."""

import pytest

from repro.experiments.temperature import (
    TemperaturePoint,
    format_temperature_table,
    run_temperature_study,
)

from tests.conftest import experiments_section


@pytest.fixture(scope="module")
def points():
    return sorted(run_temperature_study(), key=lambda p: p.temperature_k)


class TestTemperatureStudy:
    def test_leakage_monotone(self, points):
        leaks = [p.leakage_w for p in points]
        assert leaks == sorted(leaks)

    def test_growth_magnitude(self, points):
        """About an order of magnitude from 300 K to 380 K on HP devices."""
        assert (points[0].temperature_k, points[-1].temperature_k) == (
            300.0, 380.0)
        ratio = points[-1].leakage_w / points[0].leakage_w
        assert 4.0 < ratio < 25.0

    def test_leakage_share_of_tdp_grows(self, points):
        fractions = [p.leakage_fraction for p in points]
        assert fractions == sorted(fractions)

    def test_endpoints_match_experiments_md(self, points):
        """EXPERIMENTS.md's F-T numbers are this study's endpoints."""
        cool, hot = points[0], points[-1]
        section = experiments_section("F-T")
        growth = hot.leakage_w / cool.leakage_w
        for text in (
            f"{cool.leakage_w:.2f} W → {hot.leakage_w:.2f} W "
            f"({growth:.1f}×)",
            f"{cool.leakage_fraction * 100:.1f} % → "
            f"{hot.leakage_fraction * 100:.1f} %",
        ):
            assert text in section, text

    def test_fraction_property(self):
        point = TemperaturePoint(temperature_k=360, leakage_w=20,
                                 tdp_w=100)
        assert point.leakage_fraction == pytest.approx(0.2)

    def test_table_renders(self, points):
        assert "leak %" in format_temperature_table(points)

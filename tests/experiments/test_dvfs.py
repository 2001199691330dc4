"""Integration tests for the DVFS extension experiment (Niagara2, barnes)."""

import pytest

from repro.experiments.dvfs import (
    DEFAULT_VOLTAGE_POINTS,
    DvfsPoint,
    format_dvfs_table,
    run_dvfs_study,
)


@pytest.fixture(scope="module")
def points():
    return run_dvfs_study()


@pytest.fixture(scope="module")
def ordered(points):
    return sorted(points, key=lambda p: p.vdd_v)


class TestDvfsStudy:
    def test_point_count(self, points):
        assert len(points) == len(DEFAULT_VOLTAGE_POINTS)

    def test_throughput_rises_with_voltage(self, ordered):
        gips = [p.throughput_gips for p in ordered]
        assert gips == sorted(gips)

    def test_power_rises_with_voltage(self, ordered):
        power = [p.power_w for p in ordered]
        assert power == sorted(power)

    def test_epi_falls_with_undervolting(self, ordered):
        epis = [p.epi_nj for p in ordered]
        assert epis == sorted(epis)

    def test_undervolting_is_superlinear_power_win(self, points, ordered):
        """The lowest supply trades < 20 % throughput for > 15 % power
        against the nominal one, and loses less throughput than power."""
        low = ordered[0]
        nominal = points[DEFAULT_VOLTAGE_POINTS.index(1.0)]
        throughput_ratio = low.throughput_gips / nominal.throughput_gips
        power_ratio = low.power_w / nominal.power_w
        assert power_ratio < throughput_ratio
        assert throughput_ratio > 0.8
        assert power_ratio < 0.85

    def test_epi_property(self):
        point = DvfsPoint(vdd_v=1.0, clock_hz=1e9, throughput_gips=10.0,
                          power_w=20.0, tdp_w=40.0)
        assert point.epi_nj == pytest.approx(2.0)

    def test_table_renders(self, points):
        text = format_dvfs_table(points)
        assert "EPI" in text

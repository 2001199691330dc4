"""Tests for the manycore-scaling extension experiment."""

import pytest

from repro.experiments.manycore_scaling import (
    ScalingPoint,
    format_scaling_points,
    run_manycore_scaling,
)


@pytest.fixture(scope="module")
def points():
    """90 -> 22 nm under the 260 mm^2 / 130 W budgets."""
    return sorted(run_manycore_scaling(), key=lambda p: -p.node_nm)


class TestManycoreScaling:
    def test_budgets_respected(self, points):
        for p in points:
            assert p.area_mm2 <= 260.0
            assert p.tdp_w <= 130.0

    def test_smaller_node_fits_more_cores(self, points):
        counts = [p.max_cores for p in points]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0]

    def test_binding_budget_flips_from_area_to_power(self, points):
        """The dark-silicon transition: area binds at the oldest node,
        power at the newest."""
        assert (points[0].limiter, points[-1].limiter) == ("area", "power")

    def test_limiter_labels(self, points):
        for p in points:
            assert p.limiter in ("area", "power", "none")

    def test_impossible_budget_raises(self):
        with pytest.raises(ValueError, match="bust the budget"):
            run_manycore_scaling(nodes=(90,), area_budget_mm2=1.0)

    def test_table_renders(self, points):
        assert "limited by" in format_scaling_points(points)

    def test_point_is_frozen_dataclass(self):
        p = ScalingPoint(node_nm=22, max_cores=32, area_mm2=70.0,
                         tdp_w=90.0, limiter="power")
        with pytest.raises(AttributeError):
            p.max_cores = 64

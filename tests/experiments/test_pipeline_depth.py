"""Unit + integration tests for the pipeline-depth study."""

import pytest

from repro.experiments.pipeline_depth import (
    achievable_clock,
    format_pipeline_table,
    pipelined_ipc,
    run_pipeline_depth_study,
)
from repro.tech import Technology

TECH = Technology(node_nm=45, temperature_k=360)


class TestClockModel:
    def test_deeper_is_faster(self):
        assert achievable_clock(TECH, 20) > achievable_clock(TECH, 10)

    def test_diminishing_returns(self):
        """Latch overhead caps the clock gain of extreme depths."""
        gain_shallow = achievable_clock(TECH, 12) / achievable_clock(TECH, 6)
        gain_deep = achievable_clock(TECH, 48) / achievable_clock(TECH, 24)
        assert gain_deep < gain_shallow

    def test_bad_stages_rejected(self):
        with pytest.raises(ValueError):
            achievable_clock(TECH, 0)


class TestIpcModel:
    def test_depth_hurts_ipc(self):
        shallow = pipelined_ipc(1.6, 8, 5e9)
        deep = pipelined_ipc(1.6, 30, 5e9)
        assert deep < shallow

    def test_frequency_hurts_ipc(self):
        slow = pipelined_ipc(1.6, 12, 3e9)
        fast = pipelined_ipc(1.6, 12, 30e9)
        assert fast < slow

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            pipelined_ipc(0.0, 12, 1e9)
        with pytest.raises(ValueError):
            pipelined_ipc(1.0, 12, 0.0)

    def test_bounded_by_base(self):
        assert pipelined_ipc(1.6, 6, 1e9) <= 1.6


class TestStudy:
    @pytest.fixture(scope="class")
    def points(self):
        return run_pipeline_depth_study()

    def test_interior_efficiency_optimum(self, points):
        """The published shape: both optima are interior, and the
        BIPS^3/W optimum is no deeper than the BIPS optimum."""
        depths = [p.stages for p in points]
        best_perf = max(points, key=lambda p: p.bips)
        best_eff = max(points, key=lambda p: p.bips3_per_watt)
        assert (min(depths) < best_eff.stages <= best_perf.stages
                < max(depths))

    def test_power_grows_with_depth(self, points):
        powers = [p.power_w for p in points]
        assert powers == sorted(powers)

    def test_clock_rises_and_ipc_falls_with_depth(self, points):
        clocks = [p.clock_hz for p in points]
        ipcs = [p.ipc for p in points]
        assert clocks == sorted(clocks)
        assert ipcs == sorted(ipcs, reverse=True)

    def test_table_renders(self, points):
        assert "BIPS^3/W" in format_pipeline_table(points)

"""Tests for power gating (runtime leakage reduction)."""

import pytest

from repro.activity import CoreActivity, SystemActivity
from repro.chip import Processor
from repro.chip.results import ComponentResult
from repro.config.schema import CoreConfig, SystemConfig
from repro.core import Core
from repro.tech import Technology

TECH = Technology(node_nm=32, temperature_k=360)
GATED = CoreConfig(name="gated", power_gating=True)
UNGATED = CoreConfig(name="plain", power_gating=False)


class TestResultGating:
    def test_gating_scales_runtime_leakage_only(self):
        node = ComponentResult(name="x", leakage_power=10.0)
        gated = node.with_leakage_gating(0.2)
        assert gated.effective_runtime_leakage == pytest.approx(2.0)
        assert gated.leakage_power == pytest.approx(10.0)  # TDP view unchanged

    def test_gating_recursive(self):
        tree = ComponentResult(
            name="p", leakage_power=1.0,
            children=(ComponentResult(name="c", leakage_power=3.0),),
        )
        gated = tree.with_leakage_gating(0.5)
        assert gated.total_runtime_leakage_power == pytest.approx(2.0)
        assert gated.total_leakage_power == pytest.approx(4.0)

    def test_bad_retained_rejected(self):
        with pytest.raises(ValueError):
            ComponentResult(name="x").with_leakage_gating(1.5)

    def test_scaled_preserves_runtime_leakage(self):
        node = ComponentResult(name="x", leakage_power=4.0,
                               runtime_leakage_power=1.0)
        doubled = node.scaled(2.0)
        assert doubled.runtime_leakage_power == pytest.approx(2.0)

    def test_default_runtime_leakage_equals_static(self):
        node = ComponentResult(name="x", leakage_power=7.0)
        assert node.effective_runtime_leakage == pytest.approx(7.0)
        assert node.total_runtime_power == pytest.approx(7.0)


class TestCoreGating:
    def test_idle_gated_core_leaks_a_tenth(self):
        core = Core(TECH, GATED)
        idle = core.result(2e9, CoreActivity(ipc=0.0, duty_cycle=0.0))
        assert idle.total_runtime_leakage_power == pytest.approx(
            0.1 * idle.total_leakage_power, rel=0.01)

    def test_busy_gated_core_leaks_fully(self):
        core = Core(TECH, GATED)
        busy = core.result(2e9, CoreActivity(ipc=0.8, duty_cycle=1.0))
        assert busy.total_runtime_leakage_power == pytest.approx(
            busy.total_leakage_power, rel=0.01)

    def test_ungated_core_unaffected_by_duty(self):
        core = Core(TECH, UNGATED)
        idle = core.result(2e9, CoreActivity(ipc=0.0, duty_cycle=0.0))
        assert idle.total_runtime_leakage_power == pytest.approx(
            idle.total_leakage_power)

    def test_tdp_leakage_never_gated(self):
        gated = Core(TECH, GATED).result(
            2e9, CoreActivity(ipc=0.0, duty_cycle=0.0))
        plain = Core(TECH, UNGATED).result(
            2e9, CoreActivity(ipc=0.0, duty_cycle=0.0))
        assert gated.total_leakage_power == pytest.approx(
            plain.total_leakage_power, rel=0.05)

    def test_sleep_transistors_cost_area(self):
        gated = Core(TECH, GATED).result(2e9)
        plain = Core(TECH, UNGATED).result(2e9)
        assert gated.total_area > plain.total_area

    def test_idle_leakage_cut_for_little_area_at_65nm(self):
        """The power-gating ablation: an idle gated core leaks over 80 %
        less than an ungated one, for under 10 % more area."""
        tech = Technology(node_nm=65, temperature_k=360)
        idle = CoreActivity(ipc=0.0, duty_cycle=0.0)
        gated = Core(tech, GATED).result(2e9, idle)
        plain = Core(tech, UNGATED).result(2e9, idle)
        leak_saving = 1 - (gated.total_runtime_leakage_power
                           / plain.total_runtime_leakage_power)
        assert leak_saving > 0.8
        assert 0.0 < gated.total_area / plain.total_area - 1 < 0.10


class TestChipGating:
    def test_half_idle_chip_saves_leakage(self):
        config = SystemConfig(name="gated-chip", node_nm=32, clock_hz=2e9,
                              n_cores=4, core=GATED)
        chip = Processor(config)
        busy = chip.runtime_power(SystemActivity(
            core=CoreActivity(ipc=0.8, duty_cycle=1.0)))
        half = chip.runtime_power(SystemActivity(
            core=CoreActivity(ipc=0.8, duty_cycle=0.5)))
        assert half < busy

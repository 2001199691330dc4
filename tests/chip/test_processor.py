"""Integration tests: whole-chip assembly."""

import pytest

from repro.activity import CoreActivity, SystemActivity
from repro.chip import Processor
from repro.config import presets
from repro.experiments import PUBLISHED


@pytest.fixture(scope="module")
def niagara():
    return Processor(presets.niagara1())


@pytest.fixture(scope="module")
def tulsa():
    return Processor(presets.xeon_tulsa())


class TestAssembly:
    def test_report_structure(self, niagara):
        report = niagara.report()
        names = {c.name for c in report.children}
        assert any(n.startswith("Cores") for n in names)
        assert any(n.startswith("L2") for n in names)
        assert "NoC" in names
        assert "Memory Controller" in names
        assert "Clock Network" in names

    def test_l3_present_only_when_configured(self, niagara, tulsa):
        assert not any(
            c.name.startswith("L3") for c in niagara.report().children)
        assert any(
            c.name.startswith("L3") for c in tulsa.report().children)

    def test_cores_scaled_by_count(self, niagara):
        report = niagara.report()
        cores = next(c for c in report.children
                     if c.name.startswith("Cores"))
        single = niagara.parts.core.result(niagara.config.clock_hz)
        assert cores.total_area == pytest.approx(8 * single.total_area)

    def test_headline_numbers_positive(self, niagara):
        assert niagara.tdp > 0
        assert niagara.area > 0
        assert niagara.leakage_power > 0
        assert niagara.peak_dynamic_power > 0
        assert niagara.tdp == pytest.approx(
            niagara.peak_dynamic_power + niagara.leakage_power)

    def test_noc_endpoints_follow_l2_instances(self):
        clustered = Processor(presets.manycore_cluster(
            n_cores=16, cores_per_cluster=4))
        assert clustered.parts.noc_endpoints == 4

    def test_noc_endpoints_default_to_cores(self, niagara):
        assert niagara.parts.noc_endpoints == 8


class TestRuntimeAnalysis:
    def test_runtime_below_tdp(self, niagara):
        activity = SystemActivity(core=CoreActivity(ipc=0.5))
        runtime = niagara.runtime_power(activity)
        assert 0 < runtime < niagara.tdp

    def test_derived_l2_activity_scales_with_core_traffic(self, niagara):
        light = niagara.report(SystemActivity(core=CoreActivity(
            ipc=0.5, dcache_miss_rate=0.01)))
        heavy = niagara.report(SystemActivity(core=CoreActivity(
            ipc=0.5, dcache_miss_rate=0.20)))
        light_l2 = next(c for c in light.children
                        if c.name.startswith("L2"))
        heavy_l2 = next(c for c in heavy.children
                        if c.name.startswith("L2"))
        assert (heavy_l2.total_runtime_dynamic_power
                > light_l2.total_runtime_dynamic_power)

    def test_idle_chip_burns_only_leakage_and_io(self, niagara):
        report = niagara.report(activity=None)
        assert report.total_runtime_dynamic_power == pytest.approx(0.0)


class TestValidationBands:
    """The headline validation claims, T2-T5 and F-A (EXPERIMENTS.md)."""

    @pytest.mark.parametrize("name", list(PUBLISHED))
    def test_power_within_band(self, name):
        power = PUBLISHED[name].power_w
        processor = Processor(presets.VALIDATION_PRESETS[name]())
        error = abs(processor.tdp - power) / power
        assert error < 0.25, f"{name}: {processor.tdp:.1f} vs {power}"

    @pytest.mark.parametrize("name", list(PUBLISHED))
    def test_area_within_band(self, name):
        area = PUBLISHED[name].area_mm2
        processor = Processor(presets.VALIDATION_PRESETS[name]())
        error = abs(processor.area * 1e6 - area) / area
        assert error < 0.40, f"{name}: {processor.area * 1e6:.1f} vs {area}"


class TestTiming:
    def test_timing_summary_keys(self, niagara):
        summary = niagara.timing_summary()
        assert "icache_cycles" in summary
        assert "dcache_cycles" in summary
        assert "l2_cycles" in summary

    def test_l1_faster_than_l2(self, niagara):
        summary = niagara.timing_summary()
        assert summary["dcache_cycles"] < summary["l2_cycles"]

    def test_l1_reachable_in_pipeline_depth(self, niagara):
        """L1s must be accessible within a few cycles at target clock."""
        summary = niagara.timing_summary()
        assert summary["icache_cycles"] < 4.0
        assert summary["dcache_cycles"] < 4.0

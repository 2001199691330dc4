"""Consolidated edge-case and error-path coverage."""

import pytest

from repro.activity import CoreActivity
from repro.chip.results import ComponentResult
from repro.core.common import array_result, cam_result
from repro.tech import Technology

TECH = Technology(node_nm=65, temperature_k=360)


class TestCommonHelpers:
    def test_cam_result_zero_rates(self):
        from repro.array import CamArray

        cam = CamArray(TECH, entries=16, tag_bits=32)
        node = cam_result("tlb", cam, 2e9, 0.0, 0.0, 0.0, 0.0)
        assert node.peak_dynamic_power == pytest.approx(0.0)
        assert node.runtime_dynamic_power == pytest.approx(0.0)
        assert node.leakage_power > 0

    def test_array_result_rates_scale_power(self):
        from repro.array import ArraySpec, build_array

        arr = build_array(TECH, ArraySpec(name="x", entries=64,
                                          width_bits=32))
        slow = array_result("a", arr, 2e9, 0.5, 0.5, 0.1, 0.1)
        fast = array_result("a", arr, 2e9, 1.0, 1.0, 0.2, 0.2)
        assert fast.peak_dynamic_power == pytest.approx(
            2 * slow.peak_dynamic_power)
        assert fast.runtime_dynamic_power == pytest.approx(
            2 * slow.runtime_dynamic_power)


class TestValidationInternals:
    def test_unknown_component_group_raises(self):
        from repro.experiments.validation import _component_power

        report = ComponentResult(name="chip")
        with pytest.raises(KeyError, match="unknown component group"):
            _component_power(report, "gpu")

    def test_error_fraction_division_by_zero(self):
        from repro.experiments.validation import ValidationRow

        row = ValidationRow(chip="x", metric="m", published=0.0,
                            modeled=1.0)
        assert row.error_fraction == float("inf")


class TestNocEdgeCases:
    def test_zero_endpoints_rejected(self):
        from repro.config.schema import NocConfig
        from repro.noc import NetworkOnChip

        with pytest.raises(ValueError):
            NetworkOnChip(tech=TECH, config=NocConfig(), n_endpoints=0,
                          endpoint_pitch=1e-3)

    def test_negative_pitch_rejected(self):
        from repro.config.schema import NocConfig
        from repro.noc import NetworkOnChip

        with pytest.raises(ValueError):
            NetworkOnChip(tech=TECH, config=NocConfig(), n_endpoints=4,
                          endpoint_pitch=-1.0)

    def test_zero_length_link_allowed(self):
        from repro.noc import Link

        link = Link(TECH, flit_bits=8, length=0.0)
        assert link.energy_per_flit == pytest.approx(0.0)
        assert link.delay == pytest.approx(0.0)


class TestActivityEdgeCases:
    def test_zero_ipc_core_is_valid(self):
        activity = CoreActivity(ipc=0.0)
        assert activity.fetch_factor >= 1.0

    def test_speculation_overhead_up_to_two(self):
        activity = CoreActivity(ipc=1.0, speculation_overhead=2.0)
        assert activity.fetch_factor == pytest.approx(3.0)
        with pytest.raises(ValueError):
            CoreActivity(ipc=1.0, speculation_overhead=2.5)

    def test_system_activity_validates_io_utilization(self):
        from repro.activity import SystemActivity

        with pytest.raises(ValueError, match="niu_utilization"):
            SystemActivity(core=CoreActivity(ipc=1.0),
                           niu_utilization=1.5)


class TestSubarrayGeometry:
    @staticmethod
    def figures(rows, cols):
        from repro.array.mat import (
            subarray_constants,
            subarray_figures,
            wordline_driver,
        )
        from repro.array.spec import CellType, PortCounts

        k = subarray_constants(TECH, PortCounts(), CellType.SRAM)
        return subarray_figures(k, rows, cols, 1, wordline_driver(k, cols))

    def test_strip_areas_positive(self):
        sub = self.figures(rows=128, cols=128)
        assert sub.decoder_area > 0
        assert sub.senseamp_area > 0
        assert sub.width > sub.cell_block_width
        assert sub.height > sub.cell_block_height

    def test_single_row_subarray(self):
        sub = self.figures(rows=1, cols=8)
        assert sub.access_delay > 0
        assert sub.read_energy > 0


class TestProcessorCaching:
    def test_tdp_report_cached(self):
        from repro.chip import Processor
        from repro.config import presets

        chip = Processor(presets.manycore_cluster(
            n_cores=4, cores_per_cluster=2))
        assert chip._tdp_report is chip._tdp_report
        assert chip.tdp == chip._tdp_report.total_peak_power

    def test_report_with_activity_not_cached_into_tdp(self):
        from repro.activity import SystemActivity
        from repro.chip import Processor
        from repro.config import presets

        chip = Processor(presets.manycore_cluster(
            n_cores=4, cores_per_cluster=2))
        tdp_before = chip.tdp
        chip.report(SystemActivity(core=CoreActivity(ipc=0.5)))
        assert chip.tdp == tdp_before

"""Unit tests for the Technology aggregate."""

import pytest

from repro.circuit import transistor
from repro.tech import DeviceType, Technology


class TestConstruction:
    def test_defaults(self):
        tech = Technology(node_nm=65)
        assert tech.device_type is DeviceType.HP
        assert tech.vdd == pytest.approx(1.1)

    def test_unsupported_node_rejected(self):
        with pytest.raises(ValueError, match="unsupported node"):
            Technology(node_nm=40)

    def test_insane_temperature_rejected(self):
        with pytest.raises(ValueError, match="temperature"):
            Technology(node_nm=65, temperature_k=900)

    def test_scaled_preserves_operating_point(self):
        tech = Technology(
            node_nm=90, temperature_k=350, device_type=DeviceType.LOP
        )
        scaled = tech.scaled(32)
        assert scaled.node_nm == 32
        assert scaled.temperature_k == 350
        assert scaled.device_type is DeviceType.LOP


class TestDerivedQuantities:
    def test_fo4_magnitude(self):
        """FO4 should be a handful of picoseconds and shrink with the node."""
        fo4s = {
            node: Technology(node_nm=node).fo4_delay
            for node in (90, 65, 45, 32, 22)
        }
        for node, fo4 in fo4s.items():
            assert 0.5e-12 < fo4 < 40e-12, (node, fo4)
        ordered = [fo4s[n] for n in (90, 65, 45, 32, 22)]
        assert ordered == sorted(ordered, reverse=True)

    def test_sram_cell_area_magnitude(self):
        tech = Technology(node_nm=65)
        area_um2 = tech.sram_cell_area * 1e12
        assert 0.4 < area_um2 < 0.9

    def test_sram_cell_geometry_consistent(self):
        tech = Technology(node_nm=45)
        assert tech.sram_cell_width * tech.sram_cell_height == pytest.approx(
            tech.sram_cell_area, rel=1e-6
        )

    def test_cam_cell_larger_than_sram_cell(self):
        tech = Technology(node_nm=45)
        cam_area = tech.cam_cell_width * tech.cam_cell_height
        assert cam_area > tech.sram_cell_area

    def test_min_inverter_input_cap_magnitude(self):
        tech = Technology(node_nm=65)
        # A minimum inverter at 65nm has ~0.1-1 fF of input cap.
        assert 0.05e-15 < tech.c_inverter_min_input < 2e-15


class TestLeakageHelpers:
    """The device leakage of :mod:`repro.circuit.transistor` at a point."""

    def test_leakage_scales_linearly_with_width(self):
        tech = Technology(node_nm=32)
        p1 = transistor.subthreshold_leakage_power(tech, 1e-6)
        p2 = transistor.subthreshold_leakage_power(tech, 2e-6)
        assert p2 == pytest.approx(2 * p1)

    def test_leakage_grows_with_temperature(self):
        cool = Technology(node_nm=32, temperature_k=320)
        hot = Technology(node_nm=32, temperature_k=380)
        width = 1e-6
        assert (transistor.subthreshold_leakage_power(hot, width)
                > transistor.subthreshold_leakage_power(cool, width))

    def test_negative_width_rejected(self):
        tech = Technology(node_nm=32)
        with pytest.raises(ValueError):
            transistor.subthreshold_leakage_power(tech, -1e-6)
        with pytest.raises(ValueError):
            transistor.gate_leakage_power(tech, -1e-6)

    def test_lstp_flavor_cuts_leakage(self):
        hp = Technology(node_nm=45, device_type=DeviceType.HP)
        lstp = Technology(node_nm=45, device_type=DeviceType.LSTP)
        width = 1e-6
        assert (transistor.subthreshold_leakage_power(lstp, width)
                < transistor.subthreshold_leakage_power(hp, width) / 10)

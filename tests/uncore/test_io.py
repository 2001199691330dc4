"""Unit tests for NIU, PCIe, and SerDes models."""

import pytest

from repro.chip import Processor
from repro.config import presets
from repro.config.schema import NiuConfig, PcieConfig
from repro.io import NetworkInterfaceUnit, PcieController
from repro.io.serdes import SerdesLane
from repro.tech import Technology

TECH = Technology(node_nm=65, temperature_k=360)
CLOCK = 1.4e9


class TestSerdes:
    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            SerdesLane(TECH, rate_bits_per_second=0)

    def test_energy_per_bit_magnitude(self):
        lane = SerdesLane(TECH, rate_bits_per_second=2.5e9)
        assert 2e-12 < lane.energy_per_bit < 30e-12

    def test_static_floor(self):
        lane = SerdesLane(TECH, rate_bits_per_second=5e9)
        assert lane.power(0.0) > 0
        assert lane.power(1.0) == pytest.approx(lane.peak_power)

    def test_bad_utilization_rejected(self):
        lane = SerdesLane(TECH, rate_bits_per_second=5e9)
        with pytest.raises(ValueError):
            lane.power(1.5)

    def test_analog_scales_weakly(self):
        at_65 = SerdesLane(TECH, rate_bits_per_second=5e9)
        at_22 = SerdesLane(Technology(node_nm=22, temperature_k=360),
                           rate_bits_per_second=5e9)
        # Better than nothing, much worse than digital (1/4 energy).
        assert 0.45 < at_22.energy_per_bit / at_65.energy_per_bit < 0.75


class TestNiu:
    def test_zero_ports_empty(self):
        niu = NetworkInterfaceUnit(TECH, NiuConfig(ports=0))
        assert niu.result(CLOCK).total_area == pytest.approx(0.0)

    def test_peak_power_magnitude(self):
        """A dual 10GbE NIU burns a few watts at peak."""
        niu = NetworkInterfaceUnit(TECH, NiuConfig(ports=2))
        peak = niu.result(CLOCK).total_peak_dynamic_power
        assert 0.5 < peak < 10.0

    def test_runtime_tracks_utilization(self):
        niu = NetworkInterfaceUnit(TECH, NiuConfig(ports=1))
        idle = niu.result(CLOCK, utilization=0.0)
        busy = niu.result(CLOCK, utilization=1.0)
        assert (busy.total_runtime_dynamic_power
                > idle.total_runtime_dynamic_power > 0)

    def test_no_stats_zero_runtime(self):
        niu = NetworkInterfaceUnit(TECH, NiuConfig(ports=1))
        assert niu.result(CLOCK, None).total_runtime_dynamic_power == pytest.approx(0.0)

    def test_bad_utilization_rejected(self):
        niu = NetworkInterfaceUnit(TECH, NiuConfig(ports=1))
        with pytest.raises(ValueError):
            niu.result(CLOCK, utilization=2.0)


class TestPcie:
    def test_bad_gen_rejected(self):
        with pytest.raises(ValueError):
            PcieConfig(gen=4)

    def test_lanes_scale_power(self):
        x4 = PcieController(TECH, PcieConfig(lanes=4, gen=2))
        x16 = PcieController(TECH, PcieConfig(lanes=16, gen=2))
        assert (x16.result(CLOCK).total_peak_dynamic_power
                > 2 * x4.result(CLOCK).total_peak_dynamic_power)

    def test_newer_gen_costs_more(self):
        gen1 = PcieController(TECH, PcieConfig(lanes=8, gen=1))
        gen3 = PcieController(TECH, PcieConfig(lanes=8, gen=3))
        assert (gen3.result(CLOCK).total_peak_dynamic_power
                > gen1.result(CLOCK).total_peak_dynamic_power)

    def test_zero_lanes_empty(self):
        pcie = PcieController(TECH, PcieConfig(lanes=0))
        assert pcie.result(CLOCK).total_area == pytest.approx(0.0)


class TestChipIntegration:
    def test_niagara2_has_io_components(self):
        chip = Processor(presets.niagara2())
        names = {c.name for c in chip.report().children}
        assert "NIU" in names
        assert "PCIe" in names

    def test_io_round_trips_through_json(self, tmp_path):
        from repro.config import (
            load_system_config,
            presets,
            save_system_config,
        )

        config = presets.niagara2()
        path = tmp_path / "n2.json"
        save_system_config(config, path)
        assert load_system_config(path) == config

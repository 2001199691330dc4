"""Unit tests for the device parameter tables."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.tech.device import (
    SUPPORTED_NODES_NM,
    DeviceType,
    device_parameters,
    leakage_temperature_scale,
)


class TestTableCoverage:
    def test_all_nodes_all_flavors_present(self):
        for node in SUPPORTED_NODES_NM:
            for flavor in DeviceType:
                params = device_parameters(node, flavor)
                assert params.node_nm == node
                assert params.device_type == flavor

    def test_unknown_node_raises(self):
        with pytest.raises(KeyError, match="supported nodes"):
            device_parameters(40, DeviceType.HP)

    def test_lookup_accepts_plain_string_flavor(self):
        params = device_parameters(65, "lstp")
        assert params.device_type is DeviceType.LSTP


class TestRoadmapTrends:
    """The cross-node / cross-flavor shapes the higher levels rely on."""

    def test_vdd_decreases_with_node_for_hp(self):
        vdds = [device_parameters(n, DeviceType.HP).vdd
                for n in sorted(SUPPORTED_NODES_NM, reverse=True)]
        assert vdds == sorted(vdds, reverse=True)

    def test_on_current_increases_with_scaling_for_hp(self):
        ions = [device_parameters(n, DeviceType.HP).i_on
                for n in sorted(SUPPORTED_NODES_NM, reverse=True)]
        assert ions == sorted(ions)

    def test_hp_leakage_grows_as_nodes_shrink(self):
        ioffs = [device_parameters(n, DeviceType.HP).i_off
                 for n in sorted(SUPPORTED_NODES_NM, reverse=True)]
        assert ioffs == sorted(ioffs)

    @pytest.mark.parametrize("node", SUPPORTED_NODES_NM)
    def test_lstp_leaks_orders_of_magnitude_less_than_hp(self, node):
        hp = device_parameters(node, DeviceType.HP)
        lstp = device_parameters(node, DeviceType.LSTP)
        assert lstp.i_off < hp.i_off / 10.0

    @pytest.mark.parametrize("node", SUPPORTED_NODES_NM)
    def test_flavor_ordering_of_drive_current(self, node):
        hp = device_parameters(node, DeviceType.HP)
        lop = device_parameters(node, DeviceType.LOP)
        lstp = device_parameters(node, DeviceType.LSTP)
        assert hp.i_on > lop.i_on
        assert hp.i_on > lstp.i_on

    @pytest.mark.parametrize("node", SUPPORTED_NODES_NM)
    def test_vth_ordering(self, node):
        hp = device_parameters(node, DeviceType.HP)
        lstp = device_parameters(node, DeviceType.LSTP)
        assert lstp.vth > hp.vth


class TestTemperatureScaling:
    def test_leakage_increases_with_temperature(self):
        cold = device_parameters(65, DeviceType.HP, temperature_k=300)
        hot = device_parameters(65, DeviceType.HP, temperature_k=380)
        assert hot.i_off > cold.i_off

    def test_leakage_roughly_10x_from_300_to_380(self):
        cold = device_parameters(45, DeviceType.HP, temperature_k=300)
        hot = device_parameters(45, DeviceType.HP, temperature_k=380)
        ratio = hot.i_off / cold.i_off
        assert 5.0 < ratio < 20.0

    def test_gate_leakage_temperature_independent(self):
        cold = device_parameters(65, DeviceType.HP, temperature_k=300)
        hot = device_parameters(65, DeviceType.HP, temperature_k=380)
        assert hot.i_gate == cold.i_gate

    def test_temperature_scale_matches_device_model(self):
        device = device_parameters(65, DeviceType.HP, temperature_k=360.0)
        hot = device.at_temperature(device.temperature_k + 35.0)
        scale = leakage_temperature_scale(
            hot.temperature_k, device.temperature_k
        )
        assert scale == pytest.approx(math.e, rel=1e-12)
        assert hot.i_off == pytest.approx(device.i_off * scale, rel=1e-12)

    def test_nonpositive_temperature_rejected(self):
        params = device_parameters(65, DeviceType.HP)
        with pytest.raises(ValueError):
            params.at_temperature(0.0)

    @given(st.floats(min_value=250.0, max_value=450.0))
    def test_round_trip_is_identity(self, temperature):
        base = device_parameters(32, DeviceType.HP)
        there = base.at_temperature(temperature)
        back = there.at_temperature(base.temperature_k)
        assert math.isclose(back.i_off, base.i_off, rel_tol=1e-9)

    @given(st.floats(min_value=250.0, max_value=450.0),
           st.floats(min_value=250.0, max_value=450.0))
    def test_monotone_in_temperature(self, t_low, t_high):
        if t_low > t_high:
            t_low, t_high = t_high, t_low
        base = device_parameters(22, DeviceType.LOP)
        assert (base.at_temperature(t_low).i_off
                <= base.at_temperature(t_high).i_off)


class TestDerivedQuantities:
    def test_on_resistance_positive_and_sane(self):
        params = device_parameters(65, DeviceType.HP)
        # R * W should be O(100-1000 ohm*um).
        r_times_w_um = params.r_on_per_width * 1e6
        assert 100 < r_times_w_um < 5000

    def test_total_gate_cap_exceeds_ideal(self):
        params = device_parameters(90, DeviceType.HP)
        assert params.c_gate_total > params.c_gate_ideal

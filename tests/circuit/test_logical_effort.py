"""Unit tests for buffer-chain sizing."""

import pytest
from hypothesis import given, strategies as st

from repro.circuit import Gate, chain_figures, optimal_stage_count
from repro.circuit.gates import gate_device
from repro.circuit.logical_effort import chain_shape, chain_sizes
from repro.tech import Technology

TECH = Technology(node_nm=45, temperature_k=360)
DEVICE = gate_device(TECH)


class TestOptimalStageCount:
    def test_unity_effort_single_stage(self):
        assert optimal_stage_count(1.0) == 1

    def test_effort_4_single_stage(self):
        assert optimal_stage_count(4.0) == 1

    def test_effort_64_three_stages(self):
        assert optimal_stage_count(64.0) == 3

    def test_bad_effort_rejected(self):
        with pytest.raises(ValueError):
            optimal_stage_count(0.0)

    @given(st.floats(min_value=1.0, max_value=1e9))
    def test_stage_count_monotone_nondecreasing(self, effort):
        assert optimal_stage_count(effort * 4) >= optimal_stage_count(effort)


class TestChainFigures:
    def test_small_load_single_stage(self):
        assert chain_shape(DEVICE, 0.1e-15, 1.0)[0] == 1

    def test_large_load_many_stages(self):
        assert chain_shape(DEVICE, 10e-12, 1.0)[0] >= 4

    def test_stage_effort_near_four(self):
        _, effort = chain_shape(DEVICE, 1e-12, 1.0)
        assert 2.0 < effort < 8.0

    def test_sizes_are_geometric(self):
        count, effort = chain_shape(DEVICE, 1e-12, 1.0)
        sizes = chain_sizes(DEVICE, 1e-12, 1.0)
        assert len(sizes) == count
        for a, b in zip(sizes, sizes[1:]):
            assert b / a == pytest.approx(effort, rel=1e-6)

    def test_energy_at_least_load_energy(self):
        load_f = 1e-12
        chain = chain_figures(DEVICE, load_f)
        assert chain.energy_per_transition > load_f * TECH.vdd**2

    def test_bigger_load_bigger_delay_energy_area(self):
        small = chain_figures(DEVICE, 10e-15)
        large = chain_figures(DEVICE, 1e-12)
        assert large.delay > small.delay
        assert large.energy_per_transition > small.energy_per_transition
        assert large.area > small.area
        assert large.leakage_power > small.leakage_power

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError, match="load"):
            chain_figures(DEVICE, -1e-15)

    @pytest.mark.parametrize("input_size", [0.0, -1.0])
    def test_nonpositive_input_size_rejected(self, input_size):
        with pytest.raises(ValueError, match="input size"):
            chain_figures(DEVICE, 1e-12, input_size)

    def test_chain_beats_single_min_inverter_on_big_load(self):
        load = 2e-12
        assert chain_figures(DEVICE, load).delay < Gate(TECH).delay(load)

    def test_figures_are_its_gates_summed(self):
        """The chain is its sized inverters, each driving the next."""
        load_f = 1e-12
        gates = [Gate(TECH, size=size)
                 for size in chain_sizes(DEVICE, load_f, 1.0)]
        loads = [g.input_capacitance for g in gates[1:]] + [load_f]
        chain = chain_figures(DEVICE, load_f)
        assert chain.delay == pytest.approx(
            sum(g.delay(c) for g, c in zip(gates, loads)), rel=1e-12)
        assert chain.energy_per_transition == pytest.approx(
            sum(g.switching_energy(c) for g, c in zip(gates, loads)),
            rel=1e-12)
        assert chain.leakage_power == pytest.approx(
            sum(g.leakage_power for g in gates), rel=1e-12)
        assert chain.area == pytest.approx(
            sum(g.area for g in gates), rel=1e-12)

    @given(st.floats(min_value=1e-16, max_value=1e-11))
    def test_delay_positive(self, load):
        assert chain_figures(DEVICE, load).delay > 0

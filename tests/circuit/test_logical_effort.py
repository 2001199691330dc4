"""Unit tests for buffer-chain sizing."""

import pytest
from hypothesis import given, strategies as st

from repro.circuit import BufferChain, optimal_stage_count
from repro.tech import Technology

TECH = Technology(node_nm=45, temperature_k=360)


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


class TestBufferChain:
    def test_small_load_single_stage(self):
        chain = BufferChain(TECH, load_capacitance=0.1e-15)
        assert chain.stage_count == 1

    def test_large_load_many_stages(self):
        chain = BufferChain(TECH, load_capacitance=10e-12)
        assert chain.stage_count >= 4

    def test_stage_effort_near_four(self):
        chain = BufferChain(TECH, load_capacitance=1e-12)
        assert 2.0 < chain.stage_effort < 8.0

    def test_sizes_are_geometric(self):
        chain = BufferChain(TECH, load_capacitance=1e-12)
        sizes = [g.size for g in chain.stages]
        for a, b in zip(sizes, sizes[1:]):
            assert b / a == pytest.approx(chain.stage_effort, rel=1e-6)

    def test_energy_at_least_load_energy(self):
        load_f = 1e-12
        chain = BufferChain(TECH, load_capacitance=load_f)
        assert chain.energy_per_transition > load_f * TECH.vdd**2

    def test_bigger_load_bigger_delay_energy_area(self):
        small = BufferChain(TECH, load_capacitance=10e-15)
        large = BufferChain(TECH, load_capacitance=1e-12)
        assert large.delay > small.delay
        assert large.energy_per_transition > small.energy_per_transition
        assert large.area > small.area
        assert large.leakage_power > small.leakage_power

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            BufferChain(TECH, load_capacitance=-1e-15)

    def test_chain_beats_single_min_inverter_on_big_load(self):
        from repro.circuit import Gate

        load = 2e-12
        chain = BufferChain(TECH, load_capacitance=load)
        single = Gate(TECH)
        assert chain.delay < single.delay(load)

    @given(st.floats(min_value=1e-16, max_value=1e-11))
    def test_delay_positive(self, load):
        assert BufferChain(TECH, load_capacitance=load).delay > 0

"""Unit tests for the subarray circuit model, :func:`subarray_figures`."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.array.mat import (
    subarray_constants,
    subarray_figures,
    wordline_driver,
)
from repro.array.spec import CellType, PortCounts
from repro.tech import Technology

TECH = Technology(node_nm=65, temperature_k=360)


def constants(ports=None, tech=TECH):
    return subarray_constants(tech, ports or PortCounts(), CellType.SRAM)


def make(rows=128, cols=128, ports=None, mux=1, tech=TECH):
    k = constants(ports, tech)
    return subarray_figures(k, rows, cols, mux, wordline_driver(k, cols))


class TestTiming:
    def test_access_delay_composition(self):
        sub = make()
        assert sub.access_delay == pytest.approx(
            sub.decoder_delay + sub.wordline_delay + sub.bitline_delay
            + sub.senseamp_delay
        )

    def test_mux_adds_delay(self):
        assert make(mux=2).access_delay > make(mux=1).access_delay

    def test_taller_subarray_slower_bitlines(self):
        assert make(rows=512).bitline_delay > make(rows=64).bitline_delay

    def test_wider_subarray_slower_wordlines(self):
        assert make(cols=1024).wordline_delay > make(cols=64).wordline_delay

    def test_cycle_exceeds_bitline_phase(self):
        sub = make()
        assert sub.cycle_time > sub.bitline_delay


class TestEnergy:
    def test_read_energy_composition(self):
        sub = make()
        assert sub.read_energy == pytest.approx(
            sub.decoder_energy + sub.wordline_energy
            + sub.bitline_read_energy + sub.senseamp_energy
        )

    def test_bitline_energy_linear_in_cols(self):
        assert make(cols=256).bitline_read_energy == pytest.approx(
            2 * make(cols=128).bitline_read_energy, rel=0.1
        )

    def test_write_energy_exceeds_read_for_full_width(self):
        """Full-swing writes cost more than low-swing reads per column."""
        sub = make(cols=128, mux=1)
        assert 128 * sub.write_energy_per_column > sub.bitline_read_energy

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=4, max_value=512),
           st.integers(min_value=8, max_value=512))
    def test_energies_positive(self, rows, cols):
        sub = make(rows=rows, cols=cols)
        assert sub.read_energy > 0
        assert sub.write_energy_per_column > 0


class TestLeakageAndArea:
    def test_cell_leakage_scales_with_capacity(self):
        small = make(rows=64, cols=64)
        big = make(rows=256, cols=256)
        assert big.cell_leakage_power == pytest.approx(
            16 * small.cell_leakage_power, rel=0.01
        )

    def test_multiport_leaks_more(self):
        multi = make(ports=PortCounts(read_write=2))
        assert multi.cell_leakage_power > make().cell_leakage_power

    def test_multiport_cells_bigger(self):
        ports = PortCounts(read_write=1, read=2)
        assert constants(ports).cell_width > constants().cell_width
        multi, single = make(ports=ports), make()
        assert multi.width * multi.height > single.width * single.height

    def test_area_exceeds_cell_block(self):
        sub = make()
        assert (sub.width * sub.height
                > sub.cell_block_width * sub.cell_block_height)

    def test_leakage_temperature_sensitivity(self):
        hot = make(tech=Technology(node_nm=65, temperature_k=380))
        cold = make(tech=Technology(node_nm=65, temperature_k=320))
        assert hot.cell_leakage_power > 2 * cold.cell_leakage_power

"""Unit tests for the DFF array internals (:class:`DffArrayModel`)."""

import pytest

from repro.array.dff_array import DffArrayModel
from repro.array.spec import ArraySpec, CellType
from repro.tech import Technology

TECH = Technology(node_nm=65, temperature_k=360)


class TestDffArrayInternals:
    def make(self, entries=16, width=64):
        spec = ArraySpec(name="dff", entries=entries, width_bits=width,
                         cell_type=CellType.DFF)
        return DffArrayModel(TECH, spec)

    def test_mux_depth_log2(self):
        assert self.make(entries=16)._mux_depth == 4
        assert self.make(entries=2)._mux_depth == 1

    def test_write_beats_read_energy_for_wide_entries(self):
        model = self.make(entries=8, width=256)
        assert model.write_energy > model.read_energy * 0.1

    def test_clock_energy_scales_with_bits(self):
        small = self.make(entries=8, width=32)
        big = self.make(entries=32, width=64)
        assert big.clock_energy_per_cycle == pytest.approx(
            small.clock_energy_per_cycle * (32 * 64) / (8 * 32))

    def test_area_square_floorplan(self):
        model = self.make()
        assert model.width * model.height == pytest.approx(model.area)

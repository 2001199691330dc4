"""Unit tests for eDRAM array support."""

import pytest

from repro.array import ArraySpec, CellType, PortCounts, build_array
from repro.array.mat import Subarray
from repro.tech import Technology

TECH = Technology(node_nm=45, temperature_k=360)
#: The eDRAM ablation's node, checked beside TECH at the array level.
NODES = (TECH, Technology(node_nm=65, temperature_k=360))


def build(cell_type, entries=16384, width=512, tech=TECH):
    return build_array(tech, ArraySpec(
        name="slice", entries=entries, width_bits=width,
        cell_type=cell_type,
    ))


class TestSubarrayEdram:
    def test_dff_rejected_by_subarray(self):
        with pytest.raises(ValueError, match="DffArrayModel"):
            Subarray(TECH, rows=64, cols=64, ports=PortCounts(),
                     cell_type=CellType.DFF)

    def test_edram_cell_smaller(self):
        sram = Subarray(TECH, rows=128, cols=128, ports=PortCounts())
        edram = Subarray(TECH, rows=128, cols=128, ports=PortCounts(),
                         cell_type=CellType.EDRAM)
        assert edram.cell_width < sram.cell_width / 1.5
        assert edram.area < sram.area

    def test_edram_read_includes_restore(self):
        edram = Subarray(TECH, rows=128, cols=128, ports=PortCounts(),
                         cell_type=CellType.EDRAM)
        assert edram._restore_energy > 0
        assert edram.read_energy > edram.bitline_read_energy

    def test_sram_has_no_restore_or_refresh(self):
        sram = Subarray(TECH, rows=128, cols=128, ports=PortCounts())
        assert sram._restore_energy == pytest.approx(0.0)
        assert sram.refresh_power == pytest.approx(0.0)

    def test_edram_refresh_positive(self):
        edram = Subarray(TECH, rows=128, cols=128, ports=PortCounts(),
                         cell_type=CellType.EDRAM)
        assert edram.refresh_power > 0

    def test_edram_cells_leak_less(self):
        sram = Subarray(TECH, rows=256, cols=256, ports=PortCounts())
        edram = Subarray(TECH, rows=256, cols=256, ports=PortCounts(),
                         cell_type=CellType.EDRAM)
        assert edram.cell_leakage_power < sram.cell_leakage_power / 2


class TestArrayLevelEdram:
    def test_edram_denser_than_sram(self):
        for tech in NODES:
            sram = build(CellType.SRAM, tech=tech)
            edram = build(CellType.EDRAM, tech=tech)
            assert edram.area < sram.area / 2

    def test_edram_reports_refresh(self):
        for tech in NODES:
            edram = build(CellType.EDRAM, tech=tech)
            assert edram.refresh_power > 0
            assert edram.leakage_power > edram.refresh_power

    def test_sram_refresh_zero(self):
        assert build(CellType.SRAM).refresh_power == pytest.approx(0.0)

    def test_refresh_scales_with_capacity(self):
        small = build(CellType.EDRAM, entries=4096)
        large = build(CellType.EDRAM, entries=32768)
        assert large.refresh_power > 2 * small.refresh_power

    def test_edram_total_static_below_hp_sram(self):
        """The headline eDRAM trade: much lower standing power."""
        for tech in NODES:
            sram = build(CellType.SRAM, tech=tech)
            edram = build(CellType.EDRAM, tech=tech)
            assert edram.leakage_power < sram.leakage_power

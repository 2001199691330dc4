"""Unit tests for eDRAM array support."""

import pytest

from repro.array import (
    ArraySpec,
    CellType,
    PortCounts,
    build_array,
    search_organizations,
)
from repro.array.mat import (
    subarray_constants,
    subarray_figures,
    wordline_driver,
)
from repro.tech import Technology
from repro.tech.technology import EDRAM_RETENTION_TIME_S

TECH = Technology(node_nm=45, temperature_k=360)
#: The eDRAM ablation's node, checked beside TECH at the array level.
NODES = (TECH, Technology(node_nm=65, temperature_k=360))


def spec(cell_type, entries=16384, width=512):
    return ArraySpec(name="slice", entries=entries, width_bits=width,
                     cell_type=cell_type)


def build(cell_type, entries=16384, width=512, tech=TECH):
    return build_array(tech, spec(cell_type, entries, width))


def subarray(cell_type, rows=128, cols=128):
    k = subarray_constants(TECH, PortCounts(), cell_type)
    return subarray_figures(k, rows, cols, 1, wordline_driver(k, cols))


class TestSubarrayEdram:
    def test_edram_cell_smaller(self):
        def cell_width(cell_type):
            return subarray_constants(TECH, PortCounts(), cell_type).cell_width

        assert cell_width(CellType.EDRAM) < cell_width(CellType.SRAM) / 1.5
        sram, edram = subarray(CellType.SRAM), subarray(CellType.EDRAM)
        assert edram.width * edram.height < sram.width * sram.height

    def test_edram_read_includes_restore(self):
        edram = subarray(CellType.EDRAM)
        assert edram.restore_energy > 0
        assert edram.read_energy > edram.bitline_read_energy

    def test_sram_has_no_restore_or_refresh(self):
        assert subarray(CellType.SRAM).restore_energy == pytest.approx(0.0)
        assert build(CellType.SRAM, entries=1024).refresh_power == (
            pytest.approx(0.0))

    def test_edram_refresh_positive(self):
        """Every row of every subarray of the winning tiling is rewritten
        once per retention time."""
        best = search_organizations(TECH, spec(CellType.EDRAM))[0]
        sub = best.subarray
        row_energy = sub.wordline_energy + best.cols * (
            sub.write_energy_per_column)
        expected = (best.ndwl * best.ndbl * best.rows * row_energy
                    / EDRAM_RETENTION_TIME_S)
        assert expected > 0
        assert build(CellType.EDRAM).refresh_power == pytest.approx(expected)

    def test_edram_cells_leak_less(self):
        sram = subarray(CellType.SRAM, rows=256, cols=256)
        edram = subarray(CellType.EDRAM, rows=256, cols=256)
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

"""Unit + property tests for the build_array facade and DFF arrays."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import fastpath
from repro.array import ArraySpec, CellType, PortCounts, build_array
from repro.array import array_model, mat, organization
from repro.tech import Technology

TECH = Technology(node_nm=65, temperature_k=360)


class TestSramArrays:
    def test_magnitudes_32kb(self):
        """32 KB array at 65nm: sub-ns access, tens of pJ, ~0.1-0.5 mm2."""
        arr = build_array(
            TECH, ArraySpec(name="x", entries=512, width_bits=512)
        )
        assert 0.05e-9 < arr.access_time < 2e-9
        assert 5e-12 < arr.read_energy < 300e-12
        assert 0.02e-6 < arr.area < 1e-6

    def test_capacity_monotonicity(self):
        """Bigger arrays cost more in every static metric."""
        small = build_array(TECH, ArraySpec(name="s", entries=256,
                                            width_bits=256))
        big = build_array(TECH, ArraySpec(name="b", entries=4096,
                                          width_bits=256))
        assert big.area > small.area
        assert big.leakage_power > small.leakage_power
        assert big.access_time > small.access_time

    def test_multiport_costs_more(self):
        base = ArraySpec(name="x", entries=256, width_bits=64)
        multi = ArraySpec(name="x", entries=256, width_bits=64,
                          ports=PortCounts(read_write=1, read=2, write=1))
        assert (build_array(TECH, multi).area
                > build_array(TECH, base).area)

    def test_banking_replicates_leakage(self):
        single = build_array(TECH, ArraySpec(name="x", entries=4096,
                                             width_bits=512, n_banks=1))
        quad = build_array(TECH, ArraySpec(name="x", entries=4096,
                                           width_bits=512, n_banks=4))
        # 4 banks of 1/4 size each: similar total cells, more routing.
        assert quad.leakage_power > 0.5 * single.leakage_power

    def test_meets_timing_flag(self):
        relaxed = build_array(TECH, ArraySpec(
            name="x", entries=1024, width_bits=256, target_access_time=10e-9))
        impossible = build_array(TECH, ArraySpec(
            name="x", entries=1024, width_bits=256, target_access_time=1e-15))
        assert relaxed.meets_timing
        assert not impossible.meets_timing

    def test_cold_build_scores_each_tiling_once(self, monkeypatch):
        """The search computes the subarray model once per tiling, and
        the winner is assembled from the figures it was scored with."""
        events = []
        real_figures, real_search = (
            mat.subarray_figures, organization.search_organizations)

        def figures(*args):
            events.append("figures")
            return real_figures(*args)

        def search(*args):
            ranked = real_search(*args)
            events.append(("searched", len(ranked)))
            return ranked

        monkeypatch.setattr(mat, "subarray_figures", figures)
        monkeypatch.setattr(organization, "subarray_figures", figures)
        monkeypatch.setattr(array_model, "search_organizations", search)
        spec = ArraySpec(name="x", entries=4096, width_bits=512)
        tilings = len(list(organization.candidate_organizations(spec)))
        with fastpath.disabled():  # bypass the build memo: a cold build
            build_array(TECH, spec)
        assert tilings > 1
        assert events == ["figures"] * tilings + [("searched", tilings)]

    def test_dynamic_power_helper(self):
        arr = build_array(TECH, ArraySpec(name="x", entries=256,
                                          width_bits=64))
        power = arr.dynamic_power(1e9, 0.5e9)
        expected = 1e9 * arr.read_energy + 0.5e9 * arr.write_energy
        assert power == pytest.approx(expected)

    def test_dynamic_power_rejects_negative_rates(self):
        arr = build_array(TECH, ArraySpec(name="x", entries=256,
                                          width_bits=64))
        with pytest.raises(ValueError):
            arr.dynamic_power(-1.0, 0.0)

    def test_technology_scaling_shrinks_arrays(self):
        spec = ArraySpec(name="x", entries=1024, width_bits=256)
        at_90 = build_array(Technology(node_nm=90, temperature_k=360), spec)
        at_32 = build_array(Technology(node_nm=32, temperature_k=360), spec)
        assert at_32.area < at_90.area
        assert at_32.read_energy < at_90.read_energy

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([128, 512, 2048]),
           st.sampled_from([64, 256, 1024]))
    def test_invariants(self, entries, width):
        arr = build_array(TECH, ArraySpec(name="x", entries=entries,
                                          width_bits=width))
        assert arr.access_time > 0
        assert arr.cycle_time > 0
        assert arr.read_energy > 0
        assert arr.write_energy > 0
        assert arr.leakage_power > 0
        assert arr.area > 0
        assert arr.width * arr.height == pytest.approx(arr.area, rel=0.01)


class TestDffArrays:
    def test_dff_array_builds(self):
        arr = build_array(TECH, ArraySpec(
            name="ibuf", entries=16, width_bits=128, cell_type=CellType.DFF))
        assert arr.organization is None
        assert arr.clock_energy_per_cycle > 0

    def test_dff_clock_energy_scales_with_bits(self):
        small = build_array(TECH, ArraySpec(
            name="a", entries=8, width_bits=32, cell_type=CellType.DFF))
        big = build_array(TECH, ArraySpec(
            name="b", entries=32, width_bits=64, cell_type=CellType.DFF))
        assert big.clock_energy_per_cycle > big.read_energy * 0  # sanity
        assert big.clock_energy_per_cycle > small.clock_energy_per_cycle

    def test_dff_beats_sram_for_tiny_buffers(self):
        """For very small structures the DFF area is competitive."""
        dff = build_array(TECH, ArraySpec(
            name="d", entries=8, width_bits=32, cell_type=CellType.DFF))
        sram = build_array(TECH, ArraySpec(
            name="s", entries=8, width_bits=32, cell_type=CellType.SRAM))
        assert dff.area < sram.area * 5

    def test_dff_access_faster_than_big_sram(self):
        dff = build_array(TECH, ArraySpec(
            name="d", entries=16, width_bits=64, cell_type=CellType.DFF))
        sram = build_array(TECH, ArraySpec(name="s", entries=8192,
                                           width_bits=512))
        assert dff.access_time < sram.access_time

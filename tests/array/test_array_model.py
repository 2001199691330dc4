"""Unit + property tests for the build_array facade and DFF arrays."""

import dataclasses

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
        """A cold build computes the row terms once per distinct row
        count and the column terms once per distinct (columns, mux)
        pair, combines them once per tiling, and assembles the winner
        from the figures it was scored with."""
        events = []
        real_rows, real_columns, real_combine, real_search = (
            mat.row_terms, mat.column_terms, mat.tiling_figures,
            organization.search_organizations)

        def rows(k, count):
            events.append(("rows", count))
            return real_rows(k, count)

        def columns(k, cols, mux, driver):
            events.append(("columns", cols, mux))
            return real_columns(k, cols, mux, driver)

        def combine(*args):
            events.append("combine")
            return real_combine(*args)

        def search(*args):
            ranked = real_search(*args)
            events.append(("searched", len(ranked)))
            return ranked

        for module in (mat, organization):
            monkeypatch.setattr(module, "row_terms", rows)
            monkeypatch.setattr(module, "column_terms", columns)
            monkeypatch.setattr(module, "tiling_figures", combine)
        monkeypatch.setattr(array_model, "search_organizations", search)
        spec = ArraySpec(name="x", entries=4096, width_bits=512)
        tilings = list(organization.candidate_organizations(spec))
        row_counts = sorted({
            spec.entries // (t.ndbl * t.nspd) for t in tilings
        })
        column_pairs = sorted({
            (spec.width_bits * t.nspd // t.ndwl, t.nspd) for t in tilings
        })
        with fastpath.disabled():  # bypass the build memo: a cold build
            build_array(TECH, spec)
        assert len(tilings) > len(column_pairs) > len(row_counts) > 1
        assert events == (
            [("rows", count) for count in row_counts]
            + [("columns", cols, mux) for cols, mux in column_pairs]
            + ["combine"] * len(tilings)
            + [("searched", len(tilings))]
        )

    def test_twins_share_one_search(self, monkeypatch):
        """Arrays that differ only in name run one search, and each
        comes back under its own spec; without the memos each runs its
        own."""
        searched = []
        real_search = organization.search_organizations

        def search(tech, spec, weights):
            searched.append(spec.name)
            return real_search(tech, spec, weights)

        monkeypatch.setattr(array_model, "search_organizations", search)
        fastpath.clear_all()
        itlb = ArraySpec(name="itlb", entries=128, width_bits=52,
                         ports=PortCounts(read_write=1, read=1))
        dtlb = dataclasses.replace(itlb, name="dtlb")
        first, second = build_array(TECH, itlb), build_array(TECH, dtlb)
        assert searched == ["itlb"]
        assert first.spec is itlb and second.spec is dtlb
        assert (first.name, second.name) == ("itlb", "dtlb")
        assert dataclasses.replace(second, spec=itlb) == first
        assert build_array(TECH, itlb) is first

        searched.clear()
        with fastpath.disabled():
            exact = build_array(TECH, itlb), build_array(TECH, dtlb)
        assert searched == ["itlb", "dtlb"]
        assert exact == (first, second)

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

"""Unit tests for the organization search (the internal optimizer)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.array import organization
from repro.array.organization import (
    ArrayOrganization,
    OptimizationWeights,
    candidate_organizations,
    search_organizations,
)
from repro.array.spec import ArraySpec
from repro.tech import Technology

from tests.conftest import experiments_section

TECH = Technology(node_nm=65, temperature_k=360)


class TestArrayOrganization:
    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ArrayOrganization(ndwl=3, ndbl=1, nspd=1)

    def test_tiling_math(self):
        spec = ArraySpec(name="x", entries=1024, width_bits=256)
        tiling = next(c for c in search_organizations(TECH, spec)
                      if (c.ndwl, c.ndbl, c.nspd) == (4, 2, 2))
        assert (tiling.rows, tiling.cols) == (256, 128)

    def test_fits_rejects_uneven_tiling(self):
        spec = ArraySpec(name="x", entries=100, width_bits=64)
        candidates = set(candidate_organizations(spec))
        assert ArrayOrganization(ndwl=1, ndbl=1, nspd=1) in candidates
        assert ArrayOrganization(ndwl=1, ndbl=8, nspd=1) not in candidates

    def test_fits_rejects_mux_mismatch(self):
        # cols = 29 with nspd 2 cannot mux evenly.
        spec = ArraySpec(name="x", entries=512, width_bits=116)
        candidates = set(candidate_organizations(spec))
        assert ArrayOrganization(ndwl=4, ndbl=1, nspd=1) in candidates
        assert ArrayOrganization(ndwl=8, ndbl=1, nspd=2) not in candidates

    def test_str_format(self):
        org = ArrayOrganization(ndwl=2, ndbl=4, nspd=1)
        assert str(org) == "(Ndwl=2, Ndbl=4, Nspd=1)"


class TestWeights:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            OptimizationWeights(delay=-1)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            OptimizationWeights(delay=0, dynamic_energy=0, leakage=0, area=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name", ["delay", "dynamic_energy", "leakage", "area"])
    def test_non_finite_weight_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"weight {name} must be finite"):
            OptimizationWeights(**{name: value})


class TestCandidateGeneration:
    def test_candidates_all_fit(self):
        spec = ArraySpec(name="x", entries=1024, width_bits=512)
        tilings = search_organizations(TECH, spec)
        assert tilings
        for c in tilings:
            assert c.rows * c.ndbl * c.nspd == spec.entries
            assert c.cols * c.ndwl == spec.width_bits * c.nspd
            assert c.cols % c.nspd == 0

    def test_tiny_array_has_candidates(self):
        spec = ArraySpec(name="x", entries=16, width_bits=32)
        assert list(candidate_organizations(spec))


class TestSearch:
    def test_best_first_ordering(self):
        spec = ArraySpec(name="x", entries=4096, width_bits=512)
        banks = search_organizations(TECH, spec)
        assert len(banks) > 1

    def test_timing_target_prefers_feasible(self):
        spec = ArraySpec(
            name="x", entries=8192, width_bits=512,
            target_access_time=2e-9,
        )
        banks = search_organizations(TECH, spec)
        assert banks[0].access_time <= 2e-9

    def test_delay_weight_finds_fastest(self):
        spec = ArraySpec(name="x", entries=4096, width_bits=512)
        fast = search_organizations(
            TECH, spec,
            OptimizationWeights(delay=1, dynamic_energy=0, leakage=0, area=0),
        )[0]
        all_banks = search_organizations(TECH, spec)
        assert fast.access_time == min(b.access_time for b in all_banks)

    def test_energy_weight_finds_cheapest(self):
        spec = ArraySpec(name="x", entries=4096, width_bits=512)
        cheap = search_organizations(
            TECH, spec,
            OptimizationWeights(delay=0, dynamic_energy=1, leakage=0, area=0),
        )[0]
        all_banks = search_organizations(TECH, spec)
        assert cheap.read_energy == min(b.read_energy for b in all_banks)

    def test_tightening_target_is_met_and_reorganizes(self):
        """F-O: a 1 MB array at 45 nm under access-time targets from
        4 ns down to one only the fastest organization meets. Every
        target is reachable and met, tightening never slows the pick,
        and the binding target picks a different organization."""
        tech = Technology(node_nm=45, temperature_k=360)

        def best(target=None):
            spec = ArraySpec(name="l2slice", entries=16384, width_bits=512,
                             target_access_time=target)
            return search_organizations(tech, spec)

        times = sorted({b.access_time for b in best()})
        binding = (times[0] + times[1]) / 2
        targets = (4e-9, 2e-9, 1e-9, 0.7e-9, 0.5e-9, binding)
        picks = [best(target)[0] for target in targets]
        for target, bank in zip(targets, picks):
            assert bank.access_time <= target, (target, bank.organization)
        delays = [bank.access_time for bank in picks]
        assert delays == sorted(delays, reverse=True)
        assert len({bank.organization for bank in picks}) >= 2

    @pytest.mark.parametrize("target", [0.185e-9, 0.1e-9])
    def test_unreachable_target_picks_the_closest(self, target):
        """No organization of the F-O array reaches ``target``: the pick
        is the one that misses it least, the fastest (Ndwl 8, Ndbl 64,
        Nspd 4 at 0.1853 ns), not the untargeted pick."""
        tech = Technology(node_nm=45, temperature_k=360)
        spec = ArraySpec(name="l2slice", entries=16384, width_bits=512,
                         target_access_time=target)
        banks = search_organizations(tech, spec)
        fastest = min(b.access_time for b in banks)
        assert fastest > target
        assert banks[0].access_time == fastest
        assert banks[0].organization == ArrayOrganization(8, 64, 4)

    def test_f_o_numbers_match_experiments_md(self):
        """The F-O table and prose of EXPERIMENTS.md, recomputed: the
        count of organizations, the untargeted pick and the fastest."""
        tech = Technology(node_nm=45, temperature_k=360)
        spec = ArraySpec(name="l2slice", entries=16384, width_bits=512)
        ranked = search_organizations(tech, spec)
        pick = ranked[0]
        fastest = min(ranked, key=lambda c: c.access_time)
        section = experiments_section("F-O")

        def row(c, note=""):
            return (f"| {c.ndwl}, {c.ndbl}, {c.nspd}{note} | "
                    f"{c.access_time * 1e9:.3f} ns | "
                    f"{c.read_energy * 1e12:.1f} pJ | "
                    f"{c.area * 1e6:.2f} mm² |")

        expected = [
            f"has {len(ranked)} feasible organizations",
            row(pick),
            row(fastest, " (the fastest)"),
            f"≥ {math.ceil(pick.access_time * 1e13) / 1e4:.4f} ns",
            f"≤ {math.floor(pick.access_time * 1e13) / 1e4:.4f} ns",
            f"below {math.floor(fastest.access_time * 1e13) / 1e4:.4f} ns "
            "is unreachable",
            f"falls {pick.read_energy * 1e12:.1f} → "
            f"{fastest.read_energy * 1e12:.1f} pJ",
            f"rises {pick.area * 1e6:.2f} → {fastest.area * 1e6:.2f} mm²",
        ]
        for text in expected:
            assert text in section, text

    def test_ties_keep_enumeration_order(self, monkeypatch):
        """Tilings that rank equal keep their enumeration order."""
        spec = ArraySpec(name="x", entries=4096, width_bits=512)
        best = search_organizations(TECH, spec)[0]
        monkeypatch.setattr(
            organization, "tiling_figures", lambda *args: best.subarray)
        monkeypatch.setattr(
            organization, "bank_figures", lambda *args: best.bank)
        ranked = search_organizations(TECH, spec)
        assert [c.organization for c in ranked] == list(
            candidate_organizations(spec))

    def test_unreachable_cycle_target_picks_the_closest(self):
        spec = ArraySpec(name="x", entries=4096, width_bits=512,
                         target_cycle_time=1e-15)
        banks = search_organizations(TECH, spec)
        assert banks[0].cycle_time == min(b.cycle_time for b in banks)

    def test_many_feasible_organizations(self):
        spec = ArraySpec(name="cache", entries=8192, width_bits=512)
        tech = Technology(node_nm=45, temperature_k=360)
        assert len(search_organizations(tech, spec)) > 5

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([64, 256, 1024, 4096]),
           st.sampled_from([32, 64, 128, 512]))
    def test_search_always_succeeds_on_sane_specs(self, entries, width):
        spec = ArraySpec(name="x", entries=entries, width_bits=width)
        banks = search_organizations(TECH, spec)
        assert banks[0].read_energy > 0
        assert banks[0].area > 0

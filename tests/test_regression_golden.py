"""Golden-value regression tests.

These pin the calibrated operating points of the framework inside narrow
bands so that innocent-looking refactors of the underlying physics cannot
silently shift the validated results. Bands are deliberately tighter than
the acceptance criteria in EXPERIMENTS.md: a failure here means
"recalibrate or explain", not necessarily "wrong".
"""

import pytest

from repro.chip import Processor
from repro.config import presets
from repro.tech import Technology


class TestTechnologyGolden:
    """FO4 per node — the clock feasibility anchor.

    These are the *ideal-RC* FO4 values of ``Technology.fo4_delay``; the
    gate model applies its slope/stack derate on top (~1.7x).
    """

    EXPECTED_FO4_PS = {90: 8.0, 65: 5.6, 45: 3.1, 32: 2.1, 22: 1.5}

    @pytest.mark.parametrize("node,fo4_ps", EXPECTED_FO4_PS.items())
    def test_fo4(self, node, fo4_ps):
        tech = Technology(node_nm=node, temperature_k=360)
        assert tech.fo4_delay * 1e12 == pytest.approx(fo4_ps, rel=0.25)

    def test_sram_cell_area_65nm(self):
        tech = Technology(node_nm=65)
        assert tech.sram_cell_area * 1e12 == pytest.approx(0.62, rel=0.1)


class TestArrayGolden:
    """Representative array costs at 65 nm."""

    def test_l1_class_array(self):
        from repro.array import ArraySpec, build_array

        tech = Technology(node_nm=65, temperature_k=360)
        arr = build_array(tech, ArraySpec(
            name="golden-l1", entries=512, width_bits=512))
        assert arr.read_energy * 1e12 == pytest.approx(40, rel=0.8)
        assert arr.access_time * 1e9 < 0.6
        assert arr.area * 1e6 == pytest.approx(0.18, rel=0.8)


class TestChipGolden:
    """Whole-chip headline numbers (the validation anchors)."""

    EXPECTED = {
        # preset: (tdp_w, area_mm2), +-12% / +-15% bands
        "niagara1": (53.6, 257.0),
        "niagara2": (73.4, 224.0),
        "alpha21364": (121.8, 458.0),
        "xeon_tulsa": (126.0, 336.0),
    }

    @pytest.mark.parametrize("name,expected", EXPECTED.items())
    def test_headline_numbers(self, name, expected):
        tdp, area = expected
        chip = Processor(presets.VALIDATION_PRESETS[name]())
        assert chip.tdp == pytest.approx(tdp, rel=0.12), name
        assert chip.area * 1e6 == pytest.approx(area, rel=0.15), name

    def test_niagara_component_ordering(self):
        """The breakdown shape that the validation tables assert."""
        report = Processor(presets.niagara1()).report()
        cores = report.child("Cores (x8)").total_peak_power
        l2 = report.child("L2 (x1)").total_peak_power
        noc = report.child("NoC").total_peak_power
        assert cores > l2 > noc


class TestPerfGolden:
    """The performance substrate's converged operating points."""

    def test_manycore_barnes(self):
        from repro.perf import MulticoreSimulator, SPLASH2_PROFILES

        chip = Processor(presets.manycore_cluster(
            n_cores=64, cores_per_cluster=8))
        result = MulticoreSimulator(chip).run(SPLASH2_PROFILES["barnes"])
        assert result.ipc_per_core == pytest.approx(1.23, rel=0.15)
        assert result.throughput_ips / 1e9 == pytest.approx(157, rel=0.2)

    def test_energy_per_instruction_band(self):
        from repro.perf import MulticoreSimulator, SPLASH2_PROFILES

        chip = Processor(presets.manycore_cluster(
            n_cores=64, cores_per_cluster=8))
        result = MulticoreSimulator(chip).run(SPLASH2_PROFILES["lu"])
        power = chip.report(result.activity).total_runtime_power
        epi_nj = power / result.throughput_ips * 1e9
        assert 0.3 < epi_nj < 3.0

"""Integration tests for the experiment drivers (tables & figures).

Each study runs once, at the defaults EXPERIMENTS.md reports.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.chip import Processor
from repro.cli import main
from repro.config import presets
from repro.experiments import (
    PUBLISHED,
    format_clustering_table,
    format_scaling_table,
    format_validation_table,
    optimal_cluster_size,
    run_clustering_study,
    run_tech_scaling,
    run_validation,
)
from repro.tech import DeviceType

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"

#: A fenced block whose first line is a ``mcpat-repro`` command; the
#: rest of the block is that command's stdout.
CLI_BLOCK = re.compile(
    r"^```\n\$ mcpat-repro (?P<args>[^\n]*)\n(?P<out>.*?)^```$",
    re.MULTILINE | re.DOTALL,
)


@pytest.fixture(scope="module")
def validation_rows():
    return run_validation()


@pytest.fixture(scope="module")
def scaling_rows():
    return run_tech_scaling()


@pytest.fixture(scope="module")
def cluster_points():
    """64 cores, six workloads, 1-16 cores per cluster."""
    return run_clustering_study()


class TestValidation:
    def test_all_chips_covered(self, validation_rows):
        chips = {row.chip for row in validation_rows}
        assert chips == set(PUBLISHED)

    def test_component_ranking_niagara(self, validation_rows):
        """Cores must dominate Niagara's power, as published."""
        by_metric = {
            row.metric: row for row in validation_rows
            if row.chip == "niagara1"
        }
        cores = by_metric["power:cores"].modeled
        assert cores > by_metric["power:l2"].modeled
        assert cores > by_metric["power:noc"].modeled

    def test_l3_is_major_term_in_tulsa(self, validation_rows):
        by_metric = {
            row.metric: row for row in validation_rows
            if row.chip == "xeon_tulsa"
        }
        assert by_metric["power:l3"].modeled > by_metric["power:l2"].modeled

    def test_table_renders(self, validation_rows):
        text = format_validation_table(validation_rows)
        assert "niagara1" in text
        assert "%" in text


class TestTechScaling:
    def test_covers_nodes_and_flavors(self, scaling_rows):
        nodes = {r.node_nm for r in scaling_rows}
        flavors = {r.device_type for r in scaling_rows}
        assert nodes == {90, 65, 45, 32, 22}
        assert flavors == {DeviceType.HP, DeviceType.LSTP}

    def test_area_shrinks_with_node(self, scaling_rows):
        hp = sorted((r for r in scaling_rows
                     if r.device_type is DeviceType.HP),
                    key=lambda r: -r.node_nm)
        areas = [r.area_mm2 for r in hp]
        assert areas == sorted(areas, reverse=True)

    def test_dynamic_power_shrinks_with_node(self, scaling_rows):
        hp = sorted((r for r in scaling_rows
                     if r.device_type is DeviceType.HP),
                    key=lambda r: -r.node_nm)
        dyn = [r.peak_dynamic_w for r in hp]
        assert dyn == sorted(dyn, reverse=True)

    def test_hp_leakage_fraction_grows(self, scaling_rows):
        hp = sorted((r for r in scaling_rows
                     if r.device_type is DeviceType.HP),
                    key=lambda r: -r.node_nm)
        fractions = [r.leakage_fraction for r in hp]
        assert fractions == sorted(fractions)
        assert fractions[-1] > 0.4  # leakage dominates at 22nm HP

    def test_lstp_leakage_negligible(self, scaling_rows):
        for row in scaling_rows:
            if row.device_type is DeviceType.LSTP:
                assert row.leakage_fraction < 0.05

    def test_lstp_cuts_whole_chip_leakage_tenfold(self):
        """The same claim for a whole chip: Niagara2 on LSTP devices."""
        hp = Processor(presets.niagara2())
        lstp = Processor(dataclasses.replace(
            presets.niagara2(), device_type=DeviceType.LSTP,
        ))
        assert lstp.leakage_power < hp.leakage_power / 10

    def test_table_renders(self, scaling_rows):
        assert "lstp" in format_scaling_table(scaling_rows)


class TestClustering:
    def test_noc_power_monotone_decreasing(self, cluster_points):
        noc = [p.noc_power_w for p in cluster_points]
        assert noc == sorted(noc, reverse=True)

    def test_runtime_and_edp_minimal_at_an_interior_size(
            self, cluster_points):
        """F-C2, F-C3: shared L2s first shorten the run, then contention
        lengthens it, so runtime and EDP bottom out between the
        smallest and the largest cluster swept."""
        sizes = [p.cores_per_cluster for p in cluster_points]
        for metric in ("runtime_s", "edp"):
            best = optimal_cluster_size(cluster_points, metric)
            assert min(sizes) < best < max(sizes), (metric, best)

    def test_ed2p_optimum_not_larger_than_edp_optimum(self, cluster_points):
        """F-C4: ED^2P weighs delay harder, so its optimum is no larger
        a cluster than the EDP optimum."""
        edp_opt = optimal_cluster_size(cluster_points, "edp")
        ed2p_opt = optimal_cluster_size(cluster_points, "ed2p")
        assert ed2p_opt <= edp_opt

    def test_uneven_cluster_size_rejected(self):
        with pytest.raises(ValueError):
            run_clustering_study(n_cores=16, cluster_sizes=(3,),
                                 workload_names=("lu",))

    def test_energy_delay_identities(self, cluster_points):
        for p in cluster_points:
            assert p.energy_j == pytest.approx(p.power_w * p.runtime_s)
            assert p.edp == pytest.approx(p.energy_j * p.runtime_s)
            assert p.ed2p == pytest.approx(p.edp * p.runtime_s)

    def test_table_renders(self, cluster_points):
        text = format_clustering_table(cluster_points)
        assert "EDP" in text


def test_experiments_md_cli_blocks_match_the_cli(capsys):
    """Every table EXPERIMENTS.md reports as a command's output is that
    command's stdout today, verbatim."""
    blocks = CLI_BLOCK.findall(EXPERIMENTS_MD.read_text())
    commands = {args.split()[0] for args, _ in blocks}
    assert commands >= {"validate", "scaling", "clustering", "dvfs",
                        "pipeline", "manycore"}
    for args, expected in blocks:
        assert main(args.split()) == 0
        assert capsys.readouterr().out == expected, args

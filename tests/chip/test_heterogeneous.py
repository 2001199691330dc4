"""Tests for heterogeneous chips and the clock-feasibility search."""

import pytest

from repro.activity import CoreActivity, SystemActivity
from repro.chip import Processor
from repro.config import presets
from repro.config.schema import CacheGeometry, CoreConfig, SystemConfig
from repro.units import KB

BIG = CoreConfig(
    name="big", is_ooo=True, issue_width=4, decode_width=4,
    phys_int_regs=128, rob_entries=128, issue_window_entries=32,
    icache=CacheGeometry(capacity_bytes=32 * KB),
    dcache=CacheGeometry(capacity_bytes=32 * KB),
)
LITTLE = CoreConfig(name="little", branch_predictor=None)


def hetero_config(**kwargs):
    defaults = dict(
        name="hetero", node_nm=32, clock_hz=2e9, n_cores=2, core=BIG,
        little_core=LITTLE, n_little_cores=4,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


class TestHeterogeneousConfig:
    def test_little_cores_require_config(self):
        with pytest.raises(ValueError, match="little_core"):
            SystemConfig(name="bad", node_nm=32, clock_hz=2e9, n_cores=2,
                         core=BIG, n_little_cores=4)

    def test_total_cores(self):
        assert hetero_config().total_cores == 6

    def test_homogeneous_default(self):
        config = SystemConfig(name="homo", node_nm=32, clock_hz=2e9,
                              n_cores=4, core=LITTLE)
        assert config.total_cores == 4


class TestHeterogeneousProcessor:
    @pytest.fixture(scope="class")
    def chip(self):
        return Processor(hetero_config())

    def test_both_core_groups_reported(self, chip):
        names = {c.name for c in chip.report().children}
        assert "Cores (x2)" in names
        assert "Little cores (x4)" in names

    def test_little_cores_cheaper(self, chip):
        report = chip.report()
        big = report.child("Cores (x2)")
        little = report.child("Little cores (x4)")
        assert big.total_area / 2 > little.total_area / 4
        assert (big.total_peak_dynamic_power / 2
                > little.total_peak_dynamic_power / 4)

    def test_hetero_bigger_than_big_only(self):
        big_only = Processor(hetero_config(n_little_cores=0,
                                           little_core=None))
        hetero = Processor(hetero_config())
        assert hetero.area > big_only.area
        assert hetero.tdp > big_only.tdp

    def test_per_type_activity(self, chip):
        busy_littles = SystemActivity(
            core=CoreActivity(ipc=0.0, duty_cycle=0.0),
            little_core=CoreActivity(ipc=1.0),
        )
        report = chip.report(busy_littles)
        big = report.child("Cores (x2)")
        little = report.child("Little cores (x4)")
        assert little.total_runtime_dynamic_power > 0
        assert (big.total_runtime_dynamic_power
                < little.total_runtime_dynamic_power)

    def test_json_round_trip(self, tmp_path):
        from repro.config import load_system_config, save_system_config

        config = hetero_config()
        path = tmp_path / "hetero.json"
        save_system_config(config, path)
        assert load_system_config(path) == config


class TestMaxFeasibleClock:
    def test_positive_and_bounded(self):
        chip = Processor(presets.niagara1())
        fmax = chip.max_feasible_clock()
        assert 0.5e9 < fmax < 50e9

    def test_validation_targets_meet_shipping_clock(self):
        """Every validated chip must be able to run at its shipping
        frequency under the model's timing check."""
        for name in presets.VALIDATION_PRESETS:
            chip = Processor(presets.VALIDATION_PRESETS[name]())
            assert chip.max_feasible_clock() >= chip.config.clock_hz, name

    def test_tighter_allocations_lower_fmax(self):
        chip = Processor(presets.niagara1())
        loose = chip.max_feasible_clock(l1_pipeline_cycles=4.0)
        tight = chip.max_feasible_clock(l1_pipeline_cycles=1.0)
        assert tight < loose

    def test_bad_allocation_rejected(self):
        chip = Processor(presets.niagara1())
        with pytest.raises(ValueError):
            chip.max_feasible_clock(l1_pipeline_cycles=0)

    def test_newer_node_is_faster(self):
        from repro.config.presets import manycore_cluster

        at_45 = Processor(manycore_cluster(
            n_cores=4, cores_per_cluster=2, node_nm=45))
        at_22 = Processor(manycore_cluster(
            n_cores=4, cores_per_cluster=2, node_nm=22))
        assert at_22.max_feasible_clock() > at_45.max_feasible_clock()

"""Unit tests for the gem5-style stats adapter."""

import pytest
from hypothesis import given, strategies as st

from repro import obs
from repro.chip import Processor
from repro.config import presets
from repro.stats_adapter import (
    core_activity_from_stats,
    parse_gem5_stats,
    system_activity_from_stats,
)

GOOD = {
    "sim_cycles": 1_000_000.0,
    "committed_insts": 800_000.0,
    "num_load_insts": 200_000.0,
    "num_store_insts": 80_000.0,
    "num_branches": 120_000.0,
    "num_fp_insts": 40_000.0,
    "num_mult_insts": 10_000.0,
    "icache_accesses": 900_000.0,
    "icache_misses": 9_000.0,
    "dcache_accesses": 280_000.0,
    "dcache_misses": 14_000.0,
    "fetched_insts": 1_000_000.0,
    "l2_accesses": 23_000.0,
    "l2_misses": 6_000.0,
    "l2_writebacks": 5_000.0,
    "noc_flits": 50_000.0,
    "mem_reads": 5_000.0,
    "mem_writes": 2_000.0,
}


class TestParseGem5Stats:
    def _write(self, tmp_path, text):
        path = tmp_path / "stats.txt"
        path.write_text(text)
        return path

    def test_basic_parse_with_comments(self, tmp_path):
        path = self._write(tmp_path, (
            "sim_cycles  1000  # cycles simulated\n"
            "committed_insts  800\n"
        ))
        counters = parse_gem5_stats(path)
        assert counters == {"sim_cycles": 1000.0,
                            "committed_insts": 800.0}

    def test_dump_markers_and_blank_lines_ignored(self, tmp_path):
        path = self._write(tmp_path, (
            "---------- Begin Simulation Statistics ----------\n"
            "\n"
            "sim_cycles 10\n"
            "---------- End Simulation Statistics ----------\n"
        ))
        assert parse_gem5_stats(path) == {"sim_cycles": 10.0}

    def test_last_dump_wins(self, tmp_path):
        path = self._write(tmp_path, (
            "sim_cycles 10\n"
            "sim_cycles 20\n"
        ))
        assert parse_gem5_stats(path)["sim_cycles"] == pytest.approx(20.0)

    def test_non_numeric_and_nan_inf_skipped(self, tmp_path):
        path = self._write(tmp_path, (
            "ipc_histogram |10 20 30|\n"
            "bad_value nan\n"
            "worse_value inf\n"
            "sim_cycles 5\n"
            "lonely_name\n"
        ))
        assert parse_gem5_stats(path) == {"sim_cycles": 5.0}

    def test_parse_round_trip(self, tmp_path):
        path = self._write(tmp_path, (
            "---------- Begin Simulation Statistics ----------\n"
            "sim_cycles  1000  # cycles\n"
            "committed_insts 800 # instructions\n"
            "weird_hist | 1 2 3\n"
            "host_seconds nan # skipped\n"
            "\n"
            "---------- End Simulation Statistics ----------\n"
        ))
        assert parse_gem5_stats(path) == {"sim_cycles": 1000.0,
                                          "committed_insts": 800.0}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_gem5_stats(tmp_path / "absent.txt")

    def test_parse_records_obs_metrics_when_enabled(self, tmp_path):
        path = self._write(tmp_path, "sim_cycles 5\ncommitted_insts 4\n")
        obs.reset()
        obs.enable()
        try:
            parse_gem5_stats(path)
            snap = obs.snapshot()
        finally:
            obs.disable()
            obs.reset()
        assert snap.counter("stats_adapter.files_parsed") == pytest.approx(1.0)
        assert snap.gauges["stats_adapter.last_parse_counters"] == pytest.approx(2.0)

    def test_parsed_counters_feed_the_core_adapter(self, tmp_path):
        path = self._write(tmp_path, (
            "sim_cycles 1000\n"
            "committed_insts 500\n"
            "num_load_insts 100\n"
        ))
        activity = core_activity_from_stats(parse_gem5_stats(path))
        assert activity.ipc == pytest.approx(0.5)
        assert activity.load_fraction == pytest.approx(0.2)

    def test_parsed_counters_feed_the_system_adapter(self, tmp_path):
        path = self._write(tmp_path, (
            "sim_cycles 1000000\n"
            "committed_insts 700000\n"
            "num_load_insts 180000\n"
            "l2_accesses 9000\n"
            "l2_misses 3000\n"
        ))
        bundle = system_activity_from_stats(parse_gem5_stats(path))
        assert bundle.core.ipc == pytest.approx(0.7)
        assert bundle.l2 is not None


class TestCoreAdapter:
    def test_basic_conversion(self):
        activity = core_activity_from_stats(GOOD)
        assert activity.ipc == pytest.approx(0.8)
        assert activity.load_fraction == pytest.approx(0.25)
        assert activity.dcache_miss_rate == pytest.approx(0.05)
        assert activity.speculation_overhead == pytest.approx(0.25)

    def test_missing_required_counter(self):
        with pytest.raises(KeyError, match="sim_cycles"):
            core_activity_from_stats({"committed_insts": 100})

    def test_zero_cycles_rejected(self):
        with pytest.raises(ValueError):
            core_activity_from_stats(
                {"sim_cycles": 0, "committed_insts": 100})

    def test_negative_counter_rejected(self):
        bad = dict(GOOD, num_load_insts=-1.0)
        with pytest.raises(ValueError):
            core_activity_from_stats(bad)

    def test_missing_optional_counters_default_to_zero(self):
        activity = core_activity_from_stats(
            {"sim_cycles": 100.0, "committed_insts": 50.0})
        assert activity.load_fraction == pytest.approx(0.0)
        assert activity.icache_miss_rate == pytest.approx(0.0)

    def test_ratios_clamped(self):
        weird = dict(GOOD, dcache_misses=1e9)  # more misses than accesses
        activity = core_activity_from_stats(weird)
        assert activity.dcache_miss_rate == pytest.approx(1.0)

    def test_speculation_overhead_capped_at_two(self):
        wild = dict(GOOD, fetched_insts=GOOD["committed_insts"] * 10)
        activity = core_activity_from_stats(wild)
        assert activity.speculation_overhead == pytest.approx(2.0)

    def test_duty_cycle_passed_through(self):
        activity = core_activity_from_stats(GOOD, duty_cycle=0.5)
        assert activity.duty_cycle == pytest.approx(0.5)

    @given(st.floats(min_value=1.0, max_value=1e9),
           st.floats(min_value=0.0, max_value=1e9))
    def test_never_crashes_on_physical_counts(self, cycles, insts):
        activity = core_activity_from_stats(
            {"sim_cycles": cycles, "committed_insts": insts})
        assert activity.ipc >= 0.0


class TestSystemAdapter:
    def test_full_bundle(self):
        bundle = system_activity_from_stats(
            GOOD, n_l2_instances=2, n_routers=4)
        assert bundle.l2 is not None
        assert bundle.l2.accesses_per_cycle == pytest.approx(
            23_000 / 1e6 / 2)
        assert bundle.l2.miss_rate == pytest.approx(6 / 23, rel=1e-3)
        assert bundle.noc.flits_per_cycle_per_router == pytest.approx(
            50_000 / 1e6 / 4)
        assert bundle.memory_controller.reads_per_cycle == pytest.approx(
            0.005)

    def test_no_l2_counters_means_no_l2_activity(self):
        stats = {k: v for k, v in GOOD.items()
                 if not k.startswith("l2_")}
        bundle = system_activity_from_stats(stats)
        assert bundle.l2 is None

    def test_bad_instance_counts_rejected(self):
        with pytest.raises(ValueError):
            system_activity_from_stats(GOOD, n_l2_instances=0)
        with pytest.raises(ValueError):
            system_activity_from_stats(GOOD, n_routers=0)

    def test_noc_flits_clamped_to_one_per_cycle(self):
        hot = dict(GOOD, noc_flits=1e12)
        bundle = system_activity_from_stats(hot)
        assert bundle.noc.flits_per_cycle_per_router == pytest.approx(1.0)

    def test_missing_memory_counters_default_to_zero(self):
        stats = {k: v for k, v in GOOD.items()
                 if k not in ("mem_reads", "mem_writes", "noc_flits")}
        bundle = system_activity_from_stats(stats)
        assert bundle.memory_controller.reads_per_cycle == pytest.approx(0.0)
        assert bundle.memory_controller.writes_per_cycle == pytest.approx(0.0)
        assert bundle.noc.flits_per_cycle_per_router == pytest.approx(0.0)

    def test_drives_power_model_end_to_end(self):
        chip = Processor(presets.niagara1())
        bundle = system_activity_from_stats(GOOD)
        power = chip.report(bundle).total_runtime_power
        assert 0 < power < chip.tdp

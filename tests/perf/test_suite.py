"""Tests for the gem5 ``stats.txt`` parser feeding the activity adapter."""

import pytest


class TestGem5Parser:
    def test_parse_round_trip(self, tmp_path):
        from repro.stats_adapter import parse_gem5_stats

        path = tmp_path / "stats.txt"
        path.write_text(
            "---------- Begin Simulation Statistics ----------\n"
            "sim_cycles  1000  # cycles\n"
            "committed_insts 800 # instructions\n"
            "weird_hist | 1 2 3\n"
            "host_seconds nan # skipped\n"
            "\n"
            "---------- End Simulation Statistics ----------\n"
        )
        counters = parse_gem5_stats(path)
        assert counters == {"sim_cycles": 1000.0,
                            "committed_insts": 800.0}

    def test_last_dump_wins(self, tmp_path):
        from repro.stats_adapter import parse_gem5_stats

        path = tmp_path / "stats.txt"
        path.write_text("sim_cycles 10\nsim_cycles 20\n")
        assert parse_gem5_stats(path)["sim_cycles"] == pytest.approx(20.0)

    def test_missing_file_raises(self, tmp_path):
        from repro.stats_adapter import parse_gem5_stats

        with pytest.raises(FileNotFoundError):
            parse_gem5_stats(tmp_path / "nope.txt")

    def test_parser_feeds_adapter(self, tmp_path):
        from repro.stats_adapter import (
            parse_gem5_stats,
            system_activity_from_stats,
        )

        path = tmp_path / "stats.txt"
        path.write_text(
            "sim_cycles 1000000\ncommitted_insts 700000\n"
            "num_load_insts 180000\nl2_accesses 9000\nl2_misses 3000\n"
        )
        bundle = system_activity_from_stats(parse_gem5_stats(path))
        assert bundle.core.ipc == pytest.approx(0.7)
        assert bundle.l2 is not None

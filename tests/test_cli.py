"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.config import presets, save_system_config
from repro.config.loader import system_config_to_dict

from tests.conftest import make_tiny_config


class TestReport:
    def test_preset_report(self, capsys):
        assert main(["report", "niagara1", "--depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "TDP" in out
        assert "mm^2" in out
        assert "Niagara" in out

    def test_json_config_report(self, tmp_path, capsys):
        path = tmp_path / "chip.json"
        save_system_config(
            presets.manycore_cluster(n_cores=4, cores_per_cluster=2), path)
        assert main(["report", str(path), "--depth", "1"]) == 0
        assert "TDP" in capsys.readouterr().out

    def test_unknown_config_fails(self):
        with pytest.raises(SystemExit, match="unknown config"):
            main(["report", "not-a-chip"])

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json at all")
        with pytest.raises(SystemExit, match="not valid JSON") as excinfo:
            main(["report", str(path)])
        assert str(path) in str(excinfo.value)

    def test_malformed_config_reports_path(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"this": "is not a SystemConfig"}))
        with pytest.raises(SystemExit, match="malformed") as excinfo:
            main(["report", str(path)])
        assert str(path) in str(excinfo.value)

    def test_timing_breakdown(self, capsys):
        assert main(["report", "niagara1", "--depth", "1",
                     "--timing-breakdown"]) == 0
        out = capsys.readouterr().out
        assert "Model-build wall time" in out
        assert "core.ifu" in out
        assert "report assembly" in out

    def test_missing_command_fails(self):
        with pytest.raises(SystemExit):
            main([])


class TestExperimentCommands:
    def test_scaling(self, capsys):
        assert main(["scaling"]) == 0
        out = capsys.readouterr().out
        assert "lstp" in out
        assert "leak %" in out

    def test_clustering_small(self, capsys):
        assert main(["clustering", "--cores", "8"]) == 0
        out = capsys.readouterr().out
        assert "EDP" in out


class TestSweep:
    @pytest.fixture()
    def tiny_json(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(system_config_to_dict(make_tiny_config())))
        return str(path)

    def test_sweep_over_config_file(self, tiny_json, capsys):
        assert main(["sweep", tiny_json, "--axis", "cores=1,2"]) == 0
        out = capsys.readouterr().out
        assert "2-point sweep of tiny" in out
        assert "cores" in out
        assert "TDP W" in out

    def test_bad_axis_spec_fails(self, tiny_json):
        with pytest.raises(SystemExit, match="bad --axis"):
            main(["sweep", tiny_json, "--axis", "cores"])

    def test_unknown_axis_fails(self, tiny_json):
        with pytest.raises(SystemExit, match="unknown sweep axis"):
            main(["sweep", tiny_json, "--axis", "warp_factor=1,2"])

    def test_invalid_axis_value_fails_cleanly(self, tiny_json):
        with pytest.raises(SystemExit, match="n_cores must be >= 1"):
            main(["sweep", tiny_json, "--axis", "cores=0"])

    def test_unknown_workload_fails(self, tiny_json):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["sweep", tiny_json, "--axis", "cores=1",
                  "--workload", "doom"])

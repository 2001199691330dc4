"""Tests for the command-line interface."""

import json

import pytest

from repro import fastpath, obs
from repro.cli import main
from repro.config import presets, save_system_config
from repro.config.loader import system_config_to_dict

from tests.conftest import make_tiny_config


@pytest.fixture()
def tiny_json(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(system_config_to_dict(make_tiny_config())))
    return str(path)


def _span_names(path):
    return {span.name for span in obs.read_jsonl(path)}


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

    def test_profile_prints_span_profile_after_report(self, capsys):
        assert main(["report", "niagara1", "--depth", "1"]) == 0
        plain = capsys.readouterr().out
        assert main(["report", "niagara1", "--depth", "1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(plain)
        profile = out[len(plain):]
        assert "Span timing by component:" in profile
        assert "chip.report" in profile
        assert "span total covers" in profile
        assert not obs.active()

    def test_trace_writes_chrome_trace(self, tiny_json, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["report", tiny_json, "--trace", str(path)]) == 0
        assert f"-> {path}" in capsys.readouterr().out
        events = json.loads(path.read_text())["traceEvents"]
        assert "chip.report" in {event["name"] for event in events}
        assert not obs.active()

    def test_trace_detail_records_solver_spans(self, tiny_json, tmp_path):
        plain, detailed = tmp_path / "plain.jsonl", tmp_path / "detail.jsonl"
        fastpath.clear_all()
        assert main(["report", tiny_json, "--trace", str(plain)]) == 0
        fastpath.clear_all()
        assert main(["report", tiny_json, "--trace", str(detailed),
                     "--trace-detail"]) == 0
        assert "circuit.logical_effort.solve" not in _span_names(plain)
        assert "circuit.logical_effort.solve" in _span_names(detailed)

    def test_trace_detail_alone_is_a_usage_error(self, tiny_json, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", tiny_json, "--trace-detail"])
        assert excinfo.value.code == 2
        assert "--trace-detail" in capsys.readouterr().err

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

    @pytest.mark.parametrize("backend", ["scalar", "numpy"])
    @pytest.mark.parametrize("values", [
        "1.2e9,NaN,Infinity", "1.0e9,1.1e9,NaN,1.2e9,1.3e9", "-Infinity",
    ])
    def test_non_finite_axis_value_exits_nonzero(
        self, tiny_json, values, backend,
    ):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", tiny_json, "--axis", f"clock_hz={values}",
                  "--backend", backend])
        # A message (not 0/None) is a failing exit status.
        assert exc.value.code not in (0, None)
        assert "clock_hz must be finite" in str(exc.value.code)

    def test_unknown_workload_fails(self, tiny_json):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["sweep", tiny_json, "--axis", "cores=1",
                  "--workload", "doom"])

    def test_trace_without_profile_writes_file(self, tiny_json, tmp_path):
        path = tmp_path / "sweep.jsonl"
        assert main(["sweep", tiny_json, "--axis", "cores=1,2",
                     "--trace", str(path)]) == 0
        assert "engine.run_sweep" in _span_names(path)

    def test_cache_rerun_resumes_with_no_misses(
            self, tiny_json, tmp_path, capsys):
        argv = ["sweep", tiny_json, "--axis", "cores=1,2",
                "--cache", str(tmp_path / "sweep.jsonl")]
        assert main(argv) == 0
        assert "0 hits, 2 misses" in capsys.readouterr().out
        assert main(argv) == 0
        assert "2 hits, 0 misses" in capsys.readouterr().out

    def test_cache_sized_to_grid_resumes_past_capacity(
            self, tiny_json, tmp_path, capsys, monkeypatch):
        # A 4-point log replayed into a 2-entry cache would evict half
        # of it; the CLI sizes the cache to the grid instead.
        monkeypatch.setattr("repro.engine.CACHE_CAPACITY", 2)
        argv = ["sweep", tiny_json, "--axis", "cores=1,2",
                "--axis", "clock_hz=1e9,2e9",
                "--cache", str(tmp_path / "sweep.jsonl")]
        assert main(argv) == 0
        assert "0 hits, 4 misses" in capsys.readouterr().out
        assert main(argv) == 0
        assert "4 hits, 0 misses" in capsys.readouterr().out

    def test_profile_prints_spans_and_engine_metrics(self, tiny_json, capsys):
        assert main(["sweep", tiny_json, "--axis", "cores=1,2",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "Engine metrics:" in out
        assert "Span timing by component:" in out
        assert "engine.run_sweep" in out
        assert "span total covers" in out
        assert not obs.active()


class TestServe:
    @pytest.mark.parametrize("flag, value, message", [
        ("--cache-entries", "0", "cache_entries must be >= 1"),
        ("--timeout-s", "nan", "timeout_s must be positive, got nan"),
        ("--port", "70000", "port must be within 0-65535, got 70000"),
    ])
    def test_bad_tunable_exits_with_its_message(
        self, monkeypatch, flag, value, message,
    ):
        def serve_forever(config):
            raise AssertionError(f"a server started with {config}")

        monkeypatch.setattr("repro.serve.serve_forever", serve_forever)
        with pytest.raises(SystemExit, match=message):
            main(["serve", flag, value])


class TestStats:
    def test_prints_metrics_table(self, tiny_json, capsys):
        assert main(["stats", tiny_json]) == 0
        out = capsys.readouterr().out
        assert "metrics for 2 evaluation(s) of tiny" in out
        assert "engine.cache hit rate" in out
        assert not obs.active()

    def test_trace_writes_file(self, tiny_json, tmp_path):
        path = tmp_path / "stats.jsonl"
        assert main(["stats", tiny_json, "--trace", str(path)]) == 0
        assert "engine.evaluate" in _span_names(path)

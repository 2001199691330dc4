"""The unified pass registry, pass dispatch, and SARIF output."""

import json
import textwrap

import pytest

from repro.analysis import (
    ALL_PASS_NAMES,
    ALL_RULE_IDS,
    PASSES,
    SharedAnalysis,
    format_json,
    format_sarif,
    lint_paths,
    lint_source,
)
from repro.analysis.registry import resolve_passes, run_passes
from repro.cli import main

DET_SNIPPET = """
    import time

    def profile(cfg):
        return _MEMO.get_or_compute(cfg, lambda: time.time())
"""


class TestRegistry:
    def test_every_pass_is_registered_in_order(self):
        assert ALL_PASS_NAMES == (
            "base", "dimensional", "concurrency", "keysound",
        )
        for name, one in PASSES.items():
            assert one.name == name
            assert one.rule_ids
            assert one.description

    def test_pass_rule_sets_are_disjoint(self):
        seen = set()
        for one in PASSES.values():
            assert not (one.rule_ids & seen)
            seen |= one.rule_ids
        assert seen <= ALL_RULE_IDS

    def test_whole_program_passes_declare_the_callgraph(self):
        assert not PASSES["base"].needs_callgraph
        for name in ("dimensional", "concurrency", "keysound"):
            assert PASSES[name].needs_callgraph

    def test_resolve_passes_base_always_first(self):
        assert [p.name for p in resolve_passes()] == ["base"]
        assert [p.name for p in resolve_passes(
            dimensional=True, concurrency=True, keysound=True,
        )] == ["base", "dimensional", "concurrency", "keysound"]
        assert [p.name for p in resolve_passes(keysound=True)] == [
            "base", "keysound",
        ]


class TestSharedAnalysis:
    def test_structures_are_built_once(self, src_lint):
        # One lint of every pass builds each shared layer exactly once,
        # however many passes read it.
        assert src_lint.builds == {
            "build_index": 1,
            "build_program": 1,
            "build_contexts": 1,
            "build_state": 1,
        }

    def test_prepare_builds_the_layers_the_passes_need(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        import ast

        from repro.analysis.context import ModuleSource

        source = target.read_text()
        shared = SharedAnalysis([ModuleSource(
            path=str(target), source=source, tree=ast.parse(source),
        )])
        shared.prepare(resolve_passes(
            dimensional=True, concurrency=True, keysound=True,
        ))
        assert shared._program is not None
        assert shared._conc_model is not None
        assert shared._conc_state is not None


class TestParallelDispatch:
    def test_timings_cover_every_pass(self, src_lint):
        timings = src_lint.result.timings
        assert [name for name, _ in timings] == [
            "base", "dimensional", "concurrency", "keysound",
        ]
        assert all(elapsed >= 0.0 for _, elapsed in timings)

    def test_run_passes_merges_disabled_rules_out(self, tmp_path):
        import ast

        from repro.analysis.context import ModuleSource

        source = textwrap.dedent(DET_SNIPPET)
        module = ModuleSource(
            path="mod.py", source=source, tree=ast.parse(source),
        )
        shared = SharedAnalysis([module])
        passes = resolve_passes(keysound=True)
        merged, timings = run_passes(
            passes, [module], shared, frozenset({"DET001"}),
        )
        assert all(
            f.rule != "DET001"
            for found in merged.values() for f in found
        )
        assert len(timings) == len(passes)


class TestJsonTimings:
    def test_json_schema_v3_carries_timings(self):
        result = lint_source("x = 1\n", keysound=True)
        payload = json.loads(format_json(result))
        assert payload["version"] == 3
        assert payload["passes"] == ["base", "keysound"]
        assert set(payload["timings_ms"]) == {"base", "keysound"}
        assert all(
            value >= 0.0 for value in payload["timings_ms"].values()
        )


class TestSarif:
    def _sarif(self, snippet, **kwargs):
        result = lint_source(textwrap.dedent(snippet), **kwargs)
        return json.loads(format_sarif(result))

    def test_log_shape_and_rule_metadata(self):
        log = self._sarif("x = 1.0 == 1.0\n")
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        for rule_id in ("NUM001", "KEY001", "DET001", "CONC001"):
            assert rule_id in rule_ids
        (entry,) = run["results"]
        assert entry["ruleId"] == "NUM001"
        assert entry["level"] == "error"
        region = entry["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 1

    @pytest.mark.usefixtures("no_package_context")
    def test_inference_chain_becomes_related_locations(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(textwrap.dedent("""
            import time

            def helper(cfg):
                return time.time()

            def profile(cfg):
                return _MEMO.get_or_compute(cfg, lambda: helper(cfg))
        """))
        result = lint_paths([target], keysound=True)
        log = json.loads(format_sarif(result))
        (run,) = log["runs"]
        det = [
            r for r in run["results"] if r["ruleId"] == "DET001"
        ]
        assert det
        related = det[0].get("relatedLocations", [])
        assert related, "chain sites should surface as relatedLocations"
        lines = {
            loc["physicalLocation"]["region"]["startLine"]
            for loc in related
        }
        assert 5 in lines  # the time.time() call inside helper

    def test_run_properties_carry_pass_metadata(self):
        log = self._sarif("x = 1\n", keysound=True)
        (run,) = log["runs"]
        props = run["properties"]
        assert props["passes"] == ["base", "keysound"]
        assert props["filesChecked"] == 1
        assert set(props["timingsMs"]) == {"base", "keysound"}

    def test_clean_tree_is_an_empty_result_list(self):
        log = self._sarif("x = 1\n")
        (run,) = log["runs"]
        assert run["results"] == []


class TestCli:
    @pytest.mark.usefixtures("no_package_context")
    def test_sarif_format_flag(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("x = 1.0 == 1.0\n")
        code = main(["lint", "--format", "sarif", str(target)])
        assert code == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"

    @pytest.mark.usefixtures("no_package_context")
    def test_keysound_flag(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(textwrap.dedent(DET_SNIPPET))
        code = main([
            "lint", "--keysound", "--format", "json", str(target),
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert "keysound" in payload["passes"]
        assert any(
            f["rule"] == "DET001" for f in payload["findings"]
        )

    @pytest.mark.usefixtures("no_package_context")
    def test_jobs_flag(self, tmp_path, capsys):
        # ``--jobs`` still parses, for the benchmark's lint_tree
        # workload, and changes nothing.
        target = tmp_path / "mod.py"
        target.write_text(textwrap.dedent(DET_SNIPPET))

        def lint(*flags):
            code = main([
                "lint", "--all", *flags, "--format", "json", str(target),
            ])
            payload = json.loads(capsys.readouterr().out)
            return code, {
                key: payload[key] for key in (
                    "passes", "findings", "files_checked", "suppressed",
                )
            }

        flagged = lint("--jobs", "1")
        assert flagged == lint()
        assert flagged[0] == 1
        with pytest.raises(SystemExit):
            main(["lint", "--help"])
        assert "--jobs" not in capsys.readouterr().out


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))

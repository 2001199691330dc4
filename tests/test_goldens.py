"""Golden-report regression gate: fresh reports match checked-in JSON."""

import json

import pytest

from repro import fastpath
from repro.chip import Processor
from repro.chip.export import result_to_dict
from repro.config import presets
from repro.goldens import (
    DEFAULT_GOLDENS_DIR,
    GoldenDiff,
    compare_to_goldens,
    format_golden_diffs,
    golden_path,
    golden_payload,
    write_goldens,
)


class TestGoldenFiles:
    def test_golden_exists_for_every_validation_preset(self):
        for name in presets.VALIDATION_PRESETS:
            assert golden_path(DEFAULT_GOLDENS_DIR, name).exists(), (
                f"missing golden for {name}; run `make goldens`"
            )

    def test_fresh_reports_match_goldens(self):
        """The actual regression gate: any model drift fails here with a
        precise path into the result tree."""
        diffs = compare_to_goldens()
        assert not diffs, format_golden_diffs(diffs)

    @pytest.mark.parametrize("preset", tuple(presets.VALIDATION_PRESETS))
    def test_cold_report_equals_golden_exactly(self, preset):
        """No tolerance: a cold report's tree equals the golden's to the
        last bit, the same check the benchmark's ``cold_eval`` makes."""
        golden = json.loads(
            golden_path(DEFAULT_GOLDENS_DIR, preset).read_text()
        )
        fastpath.clear_all()
        report = Processor(presets.VALIDATION_PRESETS[preset]()).report()
        assert result_to_dict(report) == golden["report"]


class TestGoldenMechanics:
    def test_write_then_compare_round_trips(self, tmp_path):
        write_goldens(tmp_path, preset_names=["niagara1"])
        assert not compare_to_goldens(tmp_path, preset_names=["niagara1"])

    def test_missing_golden_raises_with_hint(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="make goldens"):
            compare_to_goldens(tmp_path, preset_names=["niagara1"])

    def test_tampered_value_is_located(self, tmp_path):
        write_goldens(tmp_path, preset_names=["niagara1"])
        path = golden_path(tmp_path, "niagara1")
        payload = json.loads(path.read_text())
        payload["tdp_w"] *= 1.5
        path.write_text(json.dumps(payload))
        diffs = compare_to_goldens(tmp_path, preset_names=["niagara1"])
        assert any(d.path == "tdp_w" for d in diffs)
        assert "niagara1" in format_golden_diffs(diffs)

    def test_tiny_drift_is_reported(self, tmp_path):
        """The comparison is exact: a 1e-9 relative drift is a diff."""
        write_goldens(tmp_path, preset_names=["niagara1"])
        path = golden_path(tmp_path, "niagara1")
        payload = json.loads(path.read_text())
        payload["tdp_w"] *= 1.0 + 1e-9
        path.write_text(json.dumps(payload))
        diffs = compare_to_goldens(tmp_path, preset_names=["niagara1"])
        assert [d.path for d in diffs] == ["tdp_w"]

    def test_structural_change_is_reported(self, tmp_path):
        write_goldens(tmp_path, preset_names=["niagara1"])
        path = golden_path(tmp_path, "niagara1")
        payload = json.loads(path.read_text())
        payload["report"]["children"].pop()
        path.write_text(json.dumps(payload))
        diffs = compare_to_goldens(tmp_path, preset_names=["niagara1"])
        assert any("children" in d.path for d in diffs)

    def test_payload_shape(self):
        payload = golden_payload("niagara1")
        assert payload["preset"] == "niagara1"
        assert payload["tdp_w"] > 0
        assert payload["area_mm2"] > 0
        assert payload["report"]["children"]
        assert payload["timing_cycles"]

    def test_diff_describe_mentions_both_values(self):
        diff = GoldenDiff("p", "a/b", 1.0, 2.0)
        text = diff.describe()
        assert "a/b" in text and "1.0" in text and "2.0" in text

"""Tests for structured result export and chip comparison."""

import json

import pytest

from repro.chip import Processor
from repro.chip.export import (
    compare_results,
    format_csv,
    result_to_csv_rows,
    result_to_dict,
    result_to_json,
)
from repro.config import presets


@pytest.fixture(scope="module")
def report():
    return Processor(presets.niagara1()).report()


class TestDictExport:
    def test_round_trip_through_json(self, report):
        data = json.loads(result_to_json(report))
        assert data["name"].startswith("Processor")
        assert data["total_area_mm2"] == pytest.approx(
            report.total_area * 1e6)

    def test_children_nested(self, report):
        data = result_to_dict(report)
        child_names = {c["name"] for c in data["children"]}
        assert any(n.startswith("Cores") for n in child_names)

    def test_totals_consistent(self, report):
        data = result_to_dict(report)
        assert data["total_peak_power_w"] == pytest.approx(
            report.total_peak_power)


class TestCsvExport:
    def test_one_row_per_component(self, report):
        rows = result_to_csv_rows(report)
        assert len(rows) == sum(1 for _ in report.walk())

    def test_paths_are_hierarchical(self, report):
        rows = result_to_csv_rows(report)
        assert any("/" in row["path"] for row in rows[1:])
        assert rows[0]["path"] == report.name

    def test_csv_text_well_formed(self, report):
        text = format_csv(report)
        lines = text.splitlines()
        columns = lines[0].count(",")
        assert all(line.count(",") == columns for line in lines)


class TestCompare:
    def test_compare_same_chip_ratio_one(self, report):
        rows = compare_results(report, report)
        for row in rows:
            if row["peak_power_baseline_w"] > 0:
                assert row["power_ratio"] == pytest.approx(1.0)

    def test_compare_different_chips(self, report):
        other = Processor(presets.niagara2()).report()
        rows = compare_results(report, other)
        names = {row["name"] for row in rows}
        # Niagara2 adds NIU/PCIe; those appear with baseline at zero.
        assert "NIU" in names
        niu = next(row for row in rows if row["name"] == "NIU")
        assert niu["peak_power_baseline_w"] == pytest.approx(0.0)
        assert niu["peak_power_candidate_w"] > 0.0

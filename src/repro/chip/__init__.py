"""Chip-level assembly: results tree, processor model, reports."""

from repro.chip.results import ComponentResult
from repro.chip.processor import Processor
from repro.chip.report import REPORT_DEPTH, format_report, render_report_text
from repro.chip.export import (
    compare_results,
    format_csv,
    result_to_dict,
    result_to_json,
)

__all__ = [
    "REPORT_DEPTH",
    "ComponentResult",
    "Processor",
    "format_report",
    "render_report_text",
    "compare_results",
    "format_csv",
    "result_to_dict",
    "result_to_json",
]

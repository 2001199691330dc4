"""McPAT-style text report rendering for result trees."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.chip.results import ComponentResult

if TYPE_CHECKING:  # avoid a report <-> processor import cycle
    from repro.chip.processor import Processor


def _format_power(watts: float) -> str:
    if watts >= 1.0:
        return f"{watts:8.3f} W "
    if watts >= 1e-3:
        return f"{watts * 1e3:8.3f} mW"
    return f"{watts * 1e6:8.3f} uW"


def _format_area(m2: float) -> str:
    mm2 = m2 * 1e6
    if mm2 >= 0.01:
        return f"{mm2:9.3f} mm^2"
    return f"{mm2 * 1e6:9.3f} um^2"


#: Hierarchy levels of the report text when a caller names none
#: (``mcpat-repro report`` and served ``POST /evaluate`` reports).
REPORT_DEPTH = 2


def format_report(
    result: ComponentResult,
    max_depth: int = 3,
    include_runtime: bool = True,
) -> str:
    """Render a result tree as an indented text report.

    Args:
        result: Root of the tree (usually from ``Processor.report``).
        max_depth: Levels of hierarchy to print.
        include_runtime: Also print the runtime dynamic column.
    """
    lines: list[str] = []

    def emit(node: ComponentResult, depth: int) -> None:
        indent = "  " * depth
        lines.append(f"{indent}{node.name}")
        lines.append(
            f"{indent}  Area         = {_format_area(node.total_area)}"
        )
        lines.append(
            f"{indent}  Peak Dynamic = "
            f"{_format_power(node.total_peak_dynamic_power)}"
        )
        if include_runtime:
            lines.append(
                f"{indent}  Runtime Dyn  = "
                f"{_format_power(node.total_runtime_dynamic_power)}"
            )
        lines.append(
            f"{indent}  Leakage      = "
            f"{_format_power(node.total_leakage_power)}"
        )
        if depth < max_depth:
            for child in node.children:
                emit(child, depth + 1)

    emit(result, 0)
    return "\n".join(lines)


def render_report_text(
    processor: "Processor", max_depth: int = REPORT_DEPTH,
) -> str:
    """The full ``mcpat-repro report`` text for one built processor.

    This is the single source of the human-readable report: the CLI
    prints it and the serve tier returns it, so a served report is
    byte-identical to the offline command's output (the breakdown tree,
    a blank line, TDP/area, then the timing summary).
    """
    report = processor.report()
    lines = [
        format_report(report, max_depth=max_depth, include_runtime=False),
        "",
        f"TDP  = {report.total_peak_power:.1f} W",
        f"Area = {report.total_area * 1e6:.1f} mm^2",
    ]
    for name, cycles in processor.timing_summary().items():
        lines.append(f"{name:<22} = {cycles:.2f} cycles")
    return "\n".join(lines)

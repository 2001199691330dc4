"""Validation experiment: published vs. modeled, four processors.

Regenerates the paper's validation tables: for each target, chip-level
power and area plus a component-level power breakdown, with signed errors
against the published reference in
:mod:`repro.experiments.published`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chip import Processor
from repro.chip.results import ComponentResult
from repro.config import presets
from repro.experiments.published import PUBLISHED, PublishedChip


@dataclass(frozen=True)
class ValidationRow:
    """One compared quantity.

    Attributes:
        chip: Preset key (e.g. ``"niagara1"``).
        metric: What is compared (e.g. ``"power_w"``, ``"power:cores"``).
        published: Reference value.
        modeled: Our framework's value.
    """

    chip: str
    metric: str
    published: float
    modeled: float

    @property
    def error_fraction(self) -> float:
        """Signed relative error (modeled - published) / published."""
        if self.published == 0:
            return float("inf")
        return (self.modeled - self.published) / self.published


def _component_power(report: ComponentResult, key: str) -> float:
    """Map a published component group onto the modeled tree (W)."""
    def peak(name: str) -> float:
        try:
            return report.child(name).total_peak_power
        except KeyError:
            return 0.0

    groups = {child.name: child for child in report.children}
    if key == "cores":
        return next(
            (c.total_peak_power for n, c in groups.items()
             if n.startswith("Cores")), 0.0,
        )
    if key == "l2":
        return next(
            (c.total_peak_power for n, c in groups.items()
             if n.startswith("L2")), 0.0,
        )
    if key == "l3":
        return next(
            (c.total_peak_power for n, c in groups.items()
             if n.startswith("L3")), 0.0,
        )
    if key == "noc":
        return peak("NoC")
    if key == "mc_io":
        return (peak("Memory Controller") + peak("I/O and pads")
                + peak("NIU") + peak("PCIe"))
    if key == "clock_misc":
        return peak("Clock Network")
    raise KeyError(f"unknown component group {key!r}")


def run_validation(chips: tuple[str, ...] | None = None) -> list[ValidationRow]:
    """Run the validation experiment.

    Args:
        chips: Preset keys to validate; defaults to all four targets.

    Returns:
        Rows for chip power, chip area, and each published component
        group's power.
    """
    rows: list[ValidationRow] = []
    for chip in chips or tuple(PUBLISHED):
        reference: PublishedChip = PUBLISHED[chip]
        report = Processor(presets.VALIDATION_PRESETS[chip]()).report()
        rows.append(ValidationRow(
            chip=chip, metric="power_w",
            published=reference.power_w,
            modeled=report.total_peak_power,
        ))
        rows.append(ValidationRow(
            chip=chip, metric="area_mm2",
            published=reference.area_mm2,
            modeled=report.total_area * 1e6,
        ))
        for key, fraction in reference.component_power_fraction.items():
            rows.append(ValidationRow(
                chip=chip, metric=f"power:{key}",
                published=fraction * reference.power_w,
                modeled=_component_power(report, key),
            ))
    return rows


def format_validation_table(rows: list[ValidationRow]) -> str:
    """Render validation rows as the paper-style table."""
    lines = [
        f"{'chip':<12} {'metric':<16} {'published':>10} "
        f"{'modeled':>10} {'error':>8}",
        "-" * 60,
    ]
    for row in rows:
        lines.append(
            f"{row.chip:<12} {row.metric:<16} {row.published:>10.1f} "
            f"{row.modeled:>10.1f} {row.error_fraction:>+7.0%}"
        )
    return "\n".join(lines)

"""Golden-report regression gate for the validation presets.

A *golden* is the canonical JSON report of one validation preset — the
full component tree plus the headline TDP/area/timing numbers — checked
into ``tests/goldens/``. Comparing a fresh evaluation against the
goldens catches unintended model drift the way the paper's published
tables catch gross errors: any refactor that changes a reported number
shows up as a precise path into the result tree.

Comparison is exact: every number must equal its golden to the last
bit, since the model is deterministic and JSON round-trips a float
exactly. A float re-association that moves the last digit is a model
change like any other. Regenerate deliberately with ``make goldens``
(or ``mcpat-repro validate --update-goldens``) and review the diff like
any other code change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.chip import Processor
from repro.chip.export import result_to_dict
from repro.config import presets

#: Bump when the golden payload layout (not the model) changes.
GOLDEN_SCHEMA_VERSION = 1

#: Where the checked-in goldens live, relative to the repo checkout.
DEFAULT_GOLDENS_DIR = (
    Path(__file__).resolve().parents[2] / "tests" / "goldens"
)


@dataclass(frozen=True)
class GoldenDiff:
    """One numeric (or structural) divergence from a golden.

    Attributes:
        preset: Validation preset name.
        path: ``/``-joined location inside the payload.
        expected: Golden value (None for a missing golden entry).
        actual: Freshly computed value (None when the path vanished).
    """

    preset: str
    path: str
    expected: Any
    actual: Any

    def describe(self) -> str:
        return (
            f"{self.preset}: {self.path}: "
            f"expected {self.expected!r}, got {self.actual!r}"
        )


def golden_payload(preset_name: str) -> dict[str, Any]:
    """Build the canonical JSON payload for one validation preset."""
    config = presets.VALIDATION_PRESETS[preset_name]()
    processor = Processor(config)
    report = processor.report()
    return {
        "schema_version": GOLDEN_SCHEMA_VERSION,
        "preset": preset_name,
        "config_name": config.name,
        "tdp_w": processor.tdp,
        "area_mm2": processor.area * 1e6,
        "timing_cycles": dict(processor.timing_summary()),
        "report": result_to_dict(report),
    }


def golden_path(directory: Path, preset_name: str) -> Path:
    return Path(directory) / f"{preset_name}.json"


def write_goldens(
    directory: Path | str = DEFAULT_GOLDENS_DIR,
    preset_names: Iterable[str] | None = None,
) -> list[Path]:
    """(Re)generate golden files; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = list(preset_names or presets.VALIDATION_PRESETS)
    written = []
    for name in names:
        path = golden_path(directory, name)
        path.write_text(
            json.dumps(golden_payload(name), indent=2, sort_keys=True)
            + "\n"
        )
        written.append(path)
    return written


def _walk_diffs(
    preset: str,
    path: str,
    expected: Any,
    actual: Any,
    out: list[GoldenDiff],
) -> None:
    if isinstance(expected, Mapping) and isinstance(actual, Mapping):
        for key in sorted(set(expected) | set(actual)):
            where = f"{path}/{key}" if path else str(key)
            if key not in expected:
                out.append(GoldenDiff(preset, where, None, actual[key]))
            elif key not in actual:
                out.append(GoldenDiff(preset, where, expected[key], None))
            else:
                _walk_diffs(preset, where, expected[key], actual[key], out)
        return
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(GoldenDiff(
                preset, f"{path}/len", len(expected), len(actual),
            ))
            return
        for i, (left, right) in enumerate(zip(expected, actual)):
            _walk_diffs(preset, f"{path}[{i}]", left, right, out)
        return
    if expected != actual:
        out.append(GoldenDiff(preset, path, expected, actual))


def compare_to_goldens(
    directory: Path | str = DEFAULT_GOLDENS_DIR,
    preset_names: Iterable[str] | None = None,
) -> list[GoldenDiff]:
    """Compare fresh evaluations to the checked-in goldens, exactly.

    Returns every divergence found; an empty list means all presets
    match bit for bit.

    Raises:
        FileNotFoundError: If a golden file is missing (run
            ``make goldens`` to create it).
    """
    directory = Path(directory)
    names = list(preset_names or presets.VALIDATION_PRESETS)
    diffs: list[GoldenDiff] = []
    for name in names:
        path = golden_path(directory, name)
        if not path.exists():
            raise FileNotFoundError(
                f"golden for preset {name!r} missing at {path}; "
                f"regenerate with `make goldens`"
            )
        expected = json.loads(path.read_text())
        actual = golden_payload(name)
        _walk_diffs(name, "", expected, actual, diffs)
    return diffs


def format_golden_diffs(diffs: list[GoldenDiff], limit: int = 20) -> str:
    """Human-readable summary of golden mismatches."""
    if not diffs:
        return "all goldens match"
    lines = [f"{len(diffs)} golden mismatch(es):"]
    for diff in diffs[:limit]:
        lines.append(f"  {diff.describe()}")
    if len(diffs) > limit:
        lines.append(f"  ... and {len(diffs) - limit} more")
    return "\n".join(lines)

"""Shared helpers for the core-unit models."""

from __future__ import annotations

from repro.array.array_model import SramArray
from repro.array.cam import CamArray
from repro.chip.results import ComponentResult


def array_result(
    name: str,
    array: SramArray,
    clock_hz: float,
    peak_reads: float,
    peak_writes: float,
    runtime_reads: float,
    runtime_writes: float,
) -> ComponentResult:
    """Wrap an array into a result node from per-cycle access rates.

    Args:
        name: Report label.
        array: The built array.
        clock_hz: Core clock.
        peak_reads: Reads per cycle at TDP activity.
        peak_writes: Writes per cycle at TDP activity.
        runtime_reads: Reads per cycle under the supplied stats.
        runtime_writes: Writes per cycle under the supplied stats.
    """
    def dynamic(reads: float, writes: float) -> float:
        if reads <= 0.0 and writes <= 0.0:
            return 0.0  # no stats supplied / structure clock-gated
        per_cycle = (
            reads * array.read_energy
            + writes * array.write_energy
            + array.clock_energy_per_cycle
        )
        return per_cycle * clock_hz

    return ComponentResult(
        name=name,
        area=array.area,
        peak_dynamic_power=dynamic(peak_reads, peak_writes),
        runtime_dynamic_power=dynamic(runtime_reads, runtime_writes),
        leakage_power=array.leakage_power,
    )


def cam_result(
    name: str,
    cam: CamArray,
    clock_hz: float,
    peak_searches: float,
    peak_writes: float,
    runtime_searches: float,
    runtime_writes: float,
) -> ComponentResult:
    """Wrap a CAM into a result node from per-cycle rates."""
    def dynamic(searches: float, writes: float) -> float:
        per_cycle = searches * cam.search_energy + writes * cam.write_energy
        return per_cycle * clock_hz

    return ComponentResult(
        name=name,
        area=cam.area,
        peak_dynamic_power=dynamic(peak_searches, peak_writes),
        runtime_dynamic_power=dynamic(runtime_searches, runtime_writes),
        leakage_power=cam.leakage_power,
    )

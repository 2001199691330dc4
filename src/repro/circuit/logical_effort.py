"""Logical-effort buffer-chain sizing.

CACTI/McPAT size every large driver (wordline drivers, predecoder drivers,
output drivers, H-tree buffers) as a geometric chain of inverters whose
per-stage effort is close to the optimum of ~4. :func:`chain_figures`
reports one such chain's delay, per-event energy, leakage and area, in
plain arithmetic over a :class:`~repro.circuit.gates.GateDevice` record;
the array organization search and the CAM model both call it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro import obs
from repro.circuit.gates import (
    GateDevice,
    GateKind,
    gate_constants,
    gate_delay,
    gate_switching_energy,
)

#: Optimum stage effort; 4 is the classical sweet spot once parasitics are
#: accounted for (the pure-math optimum is e).
OPTIMAL_STAGE_EFFORT = 4.0


def optimal_stage_count(path_effort: float) -> int:
    """Number of inverter stages that minimizes delay for a path effort.

    Args:
        path_effort: Ratio of load capacitance to input capacitance times
            the path logical effort (>= 1 yields >= 1 stage).
    """
    if path_effort <= 0:
        raise ValueError(f"path effort must be positive, got {path_effort}")
    if path_effort <= 1.0:
        return 1
    stages = round(math.log(path_effort) / math.log(OPTIMAL_STAGE_EFFORT))
    return max(1, stages)


class ChainFigures(NamedTuple):
    """Delay, per-event energy, leakage and area of one buffer chain."""

    delay: float  # repro: dim[delay: s]
    energy_per_transition: float  # repro: dim[energy_per_transition: j]
    leakage_power: float  # repro: dim[leakage_power: w]
    area: float  # repro: dim[area: m2]


def chain_shape(
    device: GateDevice, load_capacitance: float, input_size: float,
) -> tuple[int, float]:  # repro: dim[load_capacitance: f, input_size: 1]
    """(stage count, per-stage effort) of a chain into ``load_capacitance``."""
    c_in = gate_constants(
        device, GateKind.INV, 1, input_size
    ).input_capacitance
    if load_capacitance <= c_in:
        count = 1
    else:
        count = optimal_stage_count(load_capacitance / c_in)
    ratio = max(1.0, load_capacitance / c_in)
    return count, ratio ** (1.0 / count)


def chain_sizes(
    device: GateDevice, load_capacitance: float, input_size: float,
) -> tuple[float, ...]:  # repro: dim[load_capacitance: f, input_size: 1]
    """Drive strengths of the chain's inverters, input to output."""
    count, effort = chain_shape(device, load_capacitance, input_size)
    return tuple(input_size * effort**i for i in range(count))


def chain_figures(
    device: GateDevice, load_capacitance: float, input_size: float = 1.0,
) -> ChainFigures:  # repro: dim[load_capacitance: f, input_size: 1]
    """The figures of the chain from an inverter of ``input_size`` into
    ``load_capacitance``, traced as the detail span
    ``circuit.logical_effort.solve``.

    Raises:
        ValueError: On a negative load or a non-positive input size.
    """
    if load_capacitance < 0:
        raise ValueError("load capacitance must be non-negative")
    if input_size <= 0:
        raise ValueError("input size must be positive")
    sizes = chain_sizes(device, load_capacitance, input_size)
    with obs.span("circuit.logical_effort.solve", detail=True,
                  stages=len(sizes)):
        stages = [
            gate_constants(device, GateKind.INV, 1, size) for size in sizes
        ]
        count = len(stages)
        delay = 0.0
        energy = 0.0
        # From the int 0, as builtin sum() adds through Python 3.11.
        leakage = area = 0
        for i, stage in enumerate(stages):
            if i + 1 < count:
                load = stages[i + 1].input_capacitance
            else:
                load = load_capacitance
            delay += gate_delay(stage, load)
            energy += gate_switching_energy(stage, load, device.vdd)
            leakage += stage.leakage_power
            area += stage.area
        return ChainFigures(
            delay=delay,
            energy_per_transition=energy,
            leakage_power=leakage,
            area=area,
        )

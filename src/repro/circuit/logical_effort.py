"""Logical-effort buffer-chain sizing.

CACTI/McPAT size every large driver (wordline drivers, predecoder drivers,
output drivers, H-tree buffers) as a geometric chain of inverters whose
per-stage effort is close to the optimum of ~4. :class:`BufferChain`
captures one such chain and reports its delay, per-event energy, leakage,
and area. The formulas are :func:`chain_figures`, plain arithmetic over a
:class:`~repro.circuit.gates.GateDevice` record, which the array
organization search also calls directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from repro import obs
from repro.circuit.gates import (
    Gate,
    GateDevice,
    GateKind,
    gate_constants,
    gate_delay,
    gate_device,
    gate_switching_energy,
)
from repro.tech import Technology

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
    """The figures of a geometric chain: the formulas behind
    :class:`BufferChain`, in plain float arithmetic (no gate objects)."""
    stages = [
        gate_constants(device, GateKind.INV, 1, size)
        for size in chain_sizes(device, load_capacitance, input_size)
    ]
    count = len(stages)
    delay = 0.0
    energy = 0.0
    for i, stage in enumerate(stages):
        if i + 1 < count:
            load = stages[i + 1].input_capacitance
        else:
            load = load_capacitance
        delay += gate_delay(stage, load)
        energy += gate_switching_energy(stage, load, device.vdd)
    return ChainFigures(
        delay=delay,
        energy_per_transition=energy,
        leakage_power=sum(stage.leakage_power for stage in stages),
        area=sum(stage.area for stage in stages),
    )


@dataclass(frozen=True)
class BufferChain:
    """A geometrically sized inverter chain driving a capacitive load.

    Attributes:
        tech: Technology operating point.
        load_capacitance: Final load the chain must drive (F).
        input_size: Drive strength of the first inverter (min-inverter
            multiples); the capacitance seen by whatever drives the chain.
    """

    tech: Technology
    load_capacitance: float  # repro: dim[load_capacitance: f]
    input_size: float = 1.0  # repro: dim[input_size: 1]

    def __post_init__(self) -> None:
        if self.load_capacitance < 0:
            raise ValueError("load capacitance must be non-negative")
        if self.input_size <= 0:
            raise ValueError("input size must be positive")

    @cached_property
    def _device(self) -> GateDevice:
        return gate_device(self.tech)

    @cached_property
    def _shape(self) -> tuple[int, float]:
        return chain_shape(self._device, self.load_capacitance, self.input_size)

    @property
    def stage_count(self) -> int:
        """Number of inverters in the chain."""
        return self._shape[0]

    @property
    def stage_effort(self) -> float:
        """Realized per-stage effort (fanout)."""
        return self._shape[1]

    @cached_property
    def stages(self) -> tuple[Gate, ...]:
        """The sized gates, input to output."""
        sizes = chain_sizes(
            self._device, self.load_capacitance, self.input_size
        )
        return tuple(Gate(self.tech, GateKind.INV, size=s) for s in sizes)

    @property
    def input_capacitance(self) -> float:  # repro: dim[return: f]
        """Capacitance presented to the driver of this chain (F)."""
        return self.stages[0].input_capacitance

    @cached_property
    def figures(self) -> ChainFigures:
        """Delay, energy, leakage and area, solved once per chain.

        Traced as a *detail* span, recorded only under
        ``obs.enable(detail=True)``.
        """
        with obs.span("circuit.logical_effort.solve", detail=True,
                      stages=self.stage_count):
            return chain_figures(
                self._device, self.load_capacitance, self.input_size
            )

    @property
    def delay(self) -> float:  # repro: dim[return: s]
        """Propagation delay through the chain into the load (s)."""
        return self.figures.delay

    @property
    def energy_per_transition(self) -> float:  # repro: dim[return: j]
        """Dynamic energy of one full propagation incl. the load (J)."""
        return self.figures.energy_per_transition

    @property
    def leakage_power(self) -> float:  # repro: dim[return: w]
        """Total static power of the chain (W)."""
        return self.figures.leakage_power

    @property
    def area(self) -> float:  # repro: dim[return: m2]
        """Total layout area of the chain (m^2)."""
        return self.figures.area

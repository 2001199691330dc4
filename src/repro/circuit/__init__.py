"""Circuit-level primitives: gates, sizing, repeaters, FFs, crossbars.

Everything in this package is built from :class:`repro.tech.Technology` and
exposes the same three quantities the whole framework trades in — delay,
energy (dynamic per event + static leakage), and area. Each has one
formula: devices in :mod:`~repro.circuit.transistor`, gates in
:func:`~repro.circuit.gates.gate_constants`, buffer chains in
:func:`chain_figures`, repeated wires in :class:`RepeatedWire`.
"""

from repro.circuit.transistor import (
    drain_capacitance,
    gate_capacitance,
    gate_leakage_power,
    on_resistance,
    subthreshold_leakage_power,
)
from repro.circuit.gates import Gate, GateKind
from repro.circuit.logical_effort import (
    ChainFigures,
    chain_figures,
    optimal_stage_count,
)
from repro.circuit.repeater import RepeatedWire
from repro.circuit.low_swing import LowSwingLink
from repro.circuit.flipflop import FlipFlop
from repro.circuit.crossbar import Crossbar
from repro.circuit.arbiter import Arbiter

__all__ = [
    "drain_capacitance",
    "gate_capacitance",
    "gate_leakage_power",
    "on_resistance",
    "subthreshold_leakage_power",
    "Gate",
    "GateKind",
    "ChainFigures",
    "chain_figures",
    "optimal_stage_count",
    "RepeatedWire",
    "LowSwingLink",
    "FlipFlop",
    "Crossbar",
    "Arbiter",
]

"""Static-CMOS gate model (INV / NAND / NOR) with delay, energy, and area.

A :class:`Gate` is parameterized by kind, fan-in, and a drive-strength
``size`` (multiple of the minimum inverter's drive). Delay follows the
switched-RC model with an empirical slope/stack derating that aligns the
resulting FO4 with published numbers; energy is ``C V^2`` on the switched
capacitance; area follows a standard-cell layout model (fixed track height,
width proportional to transistor count and size). The formulas are
module functions (:func:`gate_constants`, :func:`gate_delay`,
:func:`gate_switching_energy`) over a :class:`GateDevice` record, shared
by :class:`Gate` and by callers that size many gates without objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

from repro import fastpath
from repro.tech import Technology

#: Empirical multiplier on the ideal switched-RC delay accounting for input
#: slope, velocity saturation and series-stack resistance effects. Chosen so
#: the model FO4 lands at ~1.7x the ideal-RC value, matching published HP
#: silicon (e.g. ~10 ps FO4 at 65 nm).
DELAY_DERATE = 1.7

#: Short-circuit power adder as a fraction of dynamic switching energy
#: (Nose-Sakurai style flat approximation used by McPAT).
SHORT_CIRCUIT_FRACTION = 0.10

#: Standard-cell track height in local-metal pitches.
_CELL_TRACK_HEIGHT = 12.0

#: Contacted gate pitch in units of the feature size.
_CONTACTED_PITCH_FEATURES = 2.5


class GateKind(str, Enum):
    """Supported static-CMOS gate families."""

    INV = "inv"
    NAND = "nand"
    NOR = "nor"


class GateConstants(NamedTuple):
    """The electrical/physical constants of one sized gate.

    Pure function of ``(tech, kind, fanin, size)``; memoized process-wide
    because hot loops (repeater sizing, array searches) instantiate the
    same handful of gate designs thousands of times per chip.
    """

    input_capacitance: float  # repro: dim[input_capacitance: f]
    self_capacitance: float  # repro: dim[self_capacitance: f]
    drive_resistance: float  # repro: dim[drive_resistance: ohm]
    leakage_power: float  # repro: dim[leakage_power: w]
    area: float  # repro: dim[area: m2]


class GateDevice(NamedTuple):
    """The technology numbers every gate formula reads.

    Gathered once per :class:`~repro.tech.Technology` by
    :func:`gate_device`, so code that sizes many gates (an organization
    search scoring every wordline driver) does plain float arithmetic
    instead of a property lookup per term.
    """

    min_width: float  # repro: dim[min_width: m]
    n_to_p_ratio: float  # repro: dim[n_to_p_ratio: 1]
    c_gate: float  # repro: dim[c_gate: f/m]
    c_junction: float  # repro: dim[c_junction: f/m]
    r_on: float  # repro: dim[r_on: ohm*m]
    i_off: float  # repro: dim[i_off: a/m]
    i_gate: float  # repro: dim[i_gate: a/m]
    vdd: float  # repro: dim[vdd: v]
    cell_height: float  # repro: dim[cell_height: m]
    contacted_pitch: float  # repro: dim[contacted_pitch: m]


def gate_device(tech: Technology) -> GateDevice:
    """The :class:`GateDevice` record of one technology point."""
    device = tech.device
    return GateDevice(
        min_width=tech.min_width,
        n_to_p_ratio=device.n_to_p_ratio,
        c_gate=device.c_gate_total,
        c_junction=device.c_junction,
        r_on=device.r_on_per_width,
        i_off=device.i_off,
        i_gate=device.i_gate,
        vdd=device.vdd,
        cell_height=_CELL_TRACK_HEIGHT * tech.wire_local.pitch,
        contacted_pitch=_CONTACTED_PITCH_FEATURES * tech.feature_size,
    )


def gate_constants(
    device: GateDevice, kind: GateKind, fanin: int, size: float,
) -> GateConstants:  # repro: dim[fanin: 1, size: 1]
    """The constants of one sized gate: the formulas behind :class:`Gate`."""
    # Each device matches the min-inverter drive; a series stack (NAND
    # pull-down, NOR pull-up) is upsized by its depth.
    nmos_width = device.min_width * size
    pmos_width = device.min_width * size * device.n_to_p_ratio
    if kind is GateKind.NAND:
        nmos_width = nmos_width * fanin
    elif kind is GateKind.NOR:
        pmos_width = pmos_width * fanin
    input_capacitance = (
        device.c_gate * nmos_width + device.c_gate * pmos_width
    )
    # One NMOS and one PMOS drain hang on the output per input leg; in a
    # multi-input gate roughly half the legs' junctions sit on the
    # output node (the rest are internal stack nodes).
    per_leg = device.c_junction * nmos_width + device.c_junction * pmos_width
    self_capacitance = (
        per_leg if kind is GateKind.INV else per_leg * fanin / 2.0
    )
    # The pull-up path is sized to match, so the worst case is ~r_n.
    drive_resistance = device.r_on / nmos_width
    if kind is GateKind.NAND:
        drive_resistance *= fanin  # series stack
    # Stack-averaged leakage: on average one of the two networks is off;
    # series stacks leak less (~10x per extra series device, captured as
    # /fanin here).
    sub_n = device.i_off * nmos_width * device.vdd
    sub_p = device.i_off * pmos_width * device.vdd / device.n_to_p_ratio
    stack = float(fanin) if kind is not GateKind.INV else 1.0
    subthreshold = 0.5 * (sub_n + sub_p) * fanin / stack
    gate_leak = device.i_gate * ((nmos_width + pmos_width) * fanin) * device.vdd
    # Wide (sized-up) devices fold into multiple fingers; up to 2x drive
    # fits in a unit-width cell.
    fold = max(1.0, size / 2.0)
    cell_width = (fanin + 1) * device.contacted_pitch * fold
    return GateConstants(
        input_capacitance=input_capacitance,
        self_capacitance=self_capacitance,
        drive_resistance=drive_resistance,
        leakage_power=subthreshold + gate_leak,
        area=device.cell_height * cell_width,
    )


def gate_delay(
    constants: GateConstants, load_capacitance: float,
) -> float:  # repro: dim[load_capacitance: f, return: s]
    """Propagation delay of a gate into a capacitive load (s)."""
    c_total = constants.self_capacitance + load_capacitance
    return DELAY_DERATE * 0.69 * constants.drive_resistance * c_total


def gate_switching_energy(
    constants: GateConstants, load_capacitance: float, vdd: float,
) -> float:  # repro: dim[load_capacitance: f, vdd: v, return: j]
    """Energy of one output transition incl. short circuit (J)."""
    c_total = (
        constants.self_capacitance + constants.input_capacitance
        + load_capacitance
    )
    return (1.0 + SHORT_CIRCUIT_FRACTION) * c_total * vdd * vdd


#: Process-wide memo of :class:`GateConstants`, keyed by the (frozen,
#: hashable) :class:`Gate` value itself.
_CONSTANTS_MEMO = fastpath.Memo("gate_constants", max_entries=8192)


@dataclass(frozen=True)
class Gate:
    """One sized static-CMOS gate.

    Attributes:
        tech: Technology operating point.
        kind: Gate family.
        fanin: Number of inputs (must be 1 for INV).
        size: Drive strength as a multiple of a minimum inverter.
    """

    tech: Technology
    kind: GateKind = GateKind.INV
    fanin: int = 1  # repro: dim[fanin: 1]
    size: float = 1.0  # repro: dim[size: 1]

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"gate size must be positive, got {self.size}")
        if self.fanin < 1:
            raise ValueError(f"fanin must be >= 1, got {self.fanin}")
        if self.kind is GateKind.INV and self.fanin != 1:
            raise ValueError("an inverter has exactly one input")
        if self.kind is not GateKind.INV and self.fanin < 2:
            raise ValueError(f"{self.kind.value} gate needs fanin >= 2")

    @property
    def transistor_count(self) -> int:
        """Total devices in the gate."""
        return 2 * self.fanin

    # -- electrical ---------------------------------------------------------

    @cached_property
    def constants(self) -> GateConstants:
        """The gate's constants, via the process-wide memo.

        Identically sized gates share one computation per process; with
        the fast path disabled the constants are recomputed in place
        (same arithmetic, no sharing).
        """
        return _CONSTANTS_MEMO.get_or_compute(self, self._compute_constants)

    def _compute_constants(self) -> GateConstants:
        return gate_constants(
            gate_device(self.tech), self.kind, self.fanin, self.size
        )

    @property
    def input_capacitance(self) -> float:  # repro: dim[return: f]
        """Capacitance presented to one input pin (F)."""
        return self.constants.input_capacitance

    @property
    def self_capacitance(self) -> float:  # repro: dim[return: f]
        """Parasitic output (drain) capacitance (F)."""
        return self.constants.self_capacitance

    @property
    def drive_resistance(self) -> float:  # repro: dim[return: ohm]
        """Effective worst-case output resistance (ohm)."""
        return self.constants.drive_resistance

    def delay(
        self, load_capacitance: float
    ) -> float:  # repro: dim[load_capacitance: f, return: s]
        """Propagation delay into a capacitive load (s)."""
        if load_capacitance < 0:
            raise ValueError("load capacitance must be non-negative")
        return gate_delay(self.constants, load_capacitance)

    def switching_energy(
        self, load_capacitance: float
    ) -> float:  # repro: dim[load_capacitance: f, return: j]
        """Dynamic energy of one output transition incl. short circuit (J)."""
        if load_capacitance < 0:
            raise ValueError("load capacitance must be non-negative")
        return gate_switching_energy(
            self.constants, load_capacitance, self.tech.vdd
        )

    @property
    def leakage_power(self) -> float:  # repro: dim[return: w]
        """Average subthreshold + gate leakage of the gate (W).

        Uses the standard stack-averaged approximation: on average one of
        the two networks is off; series stacks leak less (stacking effect,
        ~10x per extra series device captured as /fanin here).
        """
        return self.constants.leakage_power

    # -- physical -----------------------------------------------------------

    @property
    def area(self) -> float:  # repro: dim[return: m2]
        """Standard-cell footprint (m^2)."""
        return self.constants.area

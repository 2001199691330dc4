"""MOSFET device parameters per technology node and device flavor.

McPAT inherits CACTI's technology backend: device parameters for each ITRS
roadmap node in three flavors —

* ``HP``   high performance (low Vth, high on-current, high leakage),
* ``LSTP`` low standby power (high Vth, ~100-1000x lower leakage, slower),
* ``LOP``  low operating power (reduced Vdd, intermediate leakage).

The original tool ships MASTAR-derived tables; MASTAR itself is closed
tooling, so the tables below encode ITRS-roadmap-shaped values assembled from
the public CACTI releases and ITRS reports. Absolute values are approximate;
the cross-node and cross-flavor *trends* (Vdd scaling, on-current growth,
exponential leakage growth at small HP nodes, LSTP leakage floor) follow the
roadmap, which is what the higher-level models depend on.

Units: all per-width quantities are per meter of transistor width
(e.g. F/m, A/m); lengths in meters; voltages in volts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum


class DeviceType(str, Enum):
    """ITRS device flavor."""

    HP = "hp"
    LSTP = "lstp"
    LOP = "lop"


#: Technology nodes with first-class parameter tables (nm).
SUPPORTED_NODES_NM: tuple[int, ...] = (180, 90, 65, 45, 32, 22)

#: Reference temperature at which the leakage table entries hold (K).
LEAKAGE_REFERENCE_TEMPERATURE_K = 300.0

#: Subthreshold leakage grows roughly as exp(dT / T0); 35 K per e-fold gives
#: the familiar ~10x increase from 300 K to 380 K.
_SUBTHRESHOLD_TEMPERATURE_EFOLD_K = 35.0


def leakage_temperature_scale(
    temperature_k: float, reference_temperature_k: float,
) -> float:  # repro: dim[return: 1]
    """Subthreshold leakage at ``temperature_k`` over its value at
    ``reference_temperature_k``: ``exp(dT / 35 K)``."""
    return math.exp(
        (temperature_k - reference_temperature_k)
        / _SUBTHRESHOLD_TEMPERATURE_EFOLD_K
    )


@dataclass(frozen=True)
class DeviceParameters:
    """Electrical parameters of a single device flavor at one node.

    Attributes:
        node_nm: Drawn feature size in nanometers.
        device_type: Flavor these parameters describe.
        l_phy: Physical gate length (m).
        vdd: Nominal supply voltage (V).
        vth: Saturation threshold voltage (V).
        c_gate_ideal: Intrinsic gate capacitance per transistor width (F/m).
        c_fringe: Fringe + overlap capacitance per width (F/m).
        c_junction: Source/drain junction capacitance per width (F/m).
        i_on: Saturation drive current per width (A/m) for NMOS.
        i_off: Subthreshold leakage per width (A/m) at 300 K, NMOS.
        i_gate: Gate-oxide tunneling leakage per width (A/m).
        n_to_p_ratio: NMOS/PMOS drive-strength ratio (PMOS sized up by this).
        long_channel_leakage_reduction: Leakage ratio of a long-channel
            (2x length) device to a minimum-length device; used for
            leakage-optimized peripheral transistors.
        temperature_k: Temperature the leakage entries are valid at (K).
    """

    node_nm: int
    device_type: DeviceType
    l_phy: float  # repro: dim[l_phy: m]
    vdd: float  # repro: dim[vdd: v]
    vth: float  # repro: dim[vth: v]
    c_gate_ideal: float  # repro: dim[c_gate_ideal: f/m]
    c_fringe: float  # repro: dim[c_fringe: f/m]
    c_junction: float  # repro: dim[c_junction: f/m]
    i_on: float  # repro: dim[i_on: a/m]
    i_off: float  # repro: dim[i_off: a/m]
    i_gate: float  # repro: dim[i_gate: a/m]
    n_to_p_ratio: float  # repro: dim[n_to_p_ratio: 1]
    long_channel_leakage_reduction: float  # repro: dim[long_channel_leakage_reduction: 1]
    temperature_k: float = LEAKAGE_REFERENCE_TEMPERATURE_K

    @property
    def c_gate_total(self) -> float:  # repro: dim[return: f/m]
        """Total gate capacitance per width, intrinsic plus parasitic (F/m)."""
        return self.c_gate_ideal + self.c_fringe

    @property
    def r_on_per_width(self) -> float:  # repro: dim[return: ohm*m]
        """Effective on-resistance x width (ohm * m).

        Uses the standard effective-resistance approximation
        ``R_eff = vdd / i_on`` scaled by the usual 3/4 factor for the
        saturation-to-linear averaged switching trajectory.
        """
        return 0.75 * self.vdd / self.i_on

    def at_voltage(
        self, vdd: float
    ) -> "DeviceParameters":  # repro: dim[vdd: v]
        """Return a copy operating at a different supply voltage.

        Drive current follows the alpha-power law
        ``I_on ~ (Vdd - Vth)^1.3``; subthreshold leakage shrinks roughly
        linearly with Vdd through DIBL; gate leakage falls super-linearly
        (modeled quadratic). Used for DVFS studies.

        Raises:
            ValueError: If ``vdd`` does not exceed the threshold voltage
                with a 50 mV margin.
        """
        if vdd <= self.vth + 0.05:
            raise ValueError(
                f"vdd={vdd} V is too close to vth={self.vth} V for "
                "super-threshold operation"
            )
        overdrive_ratio = (vdd - self.vth) / (self.vdd - self.vth)
        return replace(
            self,
            vdd=vdd,
            i_on=self.i_on * overdrive_ratio**1.3,
            i_off=self.i_off * (vdd / self.vdd),
            i_gate=self.i_gate * (vdd / self.vdd) ** 2,
        )

    def at_temperature(self, temperature_k: float) -> "DeviceParameters":
        """Return a copy with leakage currents scaled to ``temperature_k``.

        Subthreshold leakage follows :func:`leakage_temperature_scale`;
        gate leakage is nearly temperature independent and is kept as is.
        """
        if temperature_k <= 0:
            raise ValueError(f"temperature must be positive, got {temperature_k}")
        factor = leakage_temperature_scale(temperature_k, self.temperature_k)
        return replace(
            self,
            i_off=self.i_off * factor,
            temperature_k=temperature_k,
        )


# -- parameter tables ------------------------------------------------------
#
# Keyed by (node_nm, DeviceType). Per-width values are stated per micron in
# the literature; they are converted to per-meter here (multiply F/um by 1e6
# to get F/m, A/um by 1e6 to get A/m).

def _per_um(value: float) -> float:
    """Convert a per-micron quantity to per-meter."""
    return value * 1e6


# Populated once at import time by the ``_add`` calls below and never
# written afterwards, so memoized readers cannot observe it changing.
_DEVICE_TABLE: dict[
    tuple[int, DeviceType], DeviceParameters,
] = {}  # repro: key-exempt[_DEVICE_TABLE: import-time constant table]


def _add(
    node_nm: int,
    device_type: DeviceType,
    *,
    l_phy_nm: float,
    vdd: float,
    vth: float,
    c_gate_ideal_ff_per_um: float,
    c_fringe_ff_per_um: float,
    c_junction_ff_per_um: float,
    i_on_ua_per_um: float,
    i_off_a_per_um: float,
    i_gate_a_per_um: float,
    n_to_p_ratio: float = 2.0,
    long_channel_leakage_reduction: float = 0.2,
) -> None:
    _DEVICE_TABLE[(node_nm, device_type)] = DeviceParameters(
        node_nm=node_nm,
        device_type=device_type,
        l_phy=l_phy_nm * 1e-9,
        vdd=vdd,
        vth=vth,
        c_gate_ideal=_per_um(c_gate_ideal_ff_per_um * 1e-15),
        c_fringe=_per_um(c_fringe_ff_per_um * 1e-15),
        c_junction=_per_um(c_junction_ff_per_um * 1e-15),
        i_on=_per_um(i_on_ua_per_um * 1e-6),
        i_off=_per_um(i_off_a_per_um),
        i_gate=_per_um(i_gate_a_per_um),
        n_to_p_ratio=n_to_p_ratio,
        long_channel_leakage_reduction=long_channel_leakage_reduction,
    )


# 180 nm (pre-roadmap legacy node; leakage was negligible, Vdd high).
_add(180, DeviceType.HP, l_phy_nm=100, vdd=1.7, vth=0.45,
     c_gate_ideal_ff_per_um=0.97, c_fringe_ff_per_um=0.30,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=750,
     i_off_a_per_um=2.0e-11, i_gate_a_per_um=1.0e-13,
     long_channel_leakage_reduction=0.5)
_add(180, DeviceType.LSTP, l_phy_nm=130, vdd=1.8, vth=0.60,
     c_gate_ideal_ff_per_um=1.10, c_fringe_ff_per_um=0.30,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=420,
     i_off_a_per_um=5.0e-13, i_gate_a_per_um=1.0e-14,
     long_channel_leakage_reduction=0.6)
_add(180, DeviceType.LOP, l_phy_nm=110, vdd=1.2, vth=0.40,
     c_gate_ideal_ff_per_um=1.00, c_fringe_ff_per_um=0.30,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=520,
     i_off_a_per_um=5.0e-12, i_gate_a_per_um=5.0e-14,
     long_channel_leakage_reduction=0.55)

# 90 nm.
_add(90, DeviceType.HP, l_phy_nm=37, vdd=1.2, vth=0.24,
     c_gate_ideal_ff_per_um=0.66, c_fringe_ff_per_um=0.25,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=1077,
     i_off_a_per_um=3.2e-08, i_gate_a_per_um=6.0e-09,
     long_channel_leakage_reduction=0.21)
_add(90, DeviceType.LSTP, l_phy_nm=65, vdd=1.2, vth=0.52,
     c_gate_ideal_ff_per_um=0.90, c_fringe_ff_per_um=0.25,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=465,
     i_off_a_per_um=3.2e-11, i_gate_a_per_um=2.0e-12,
     long_channel_leakage_reduction=0.61)
_add(90, DeviceType.LOP, l_phy_nm=45, vdd=0.9, vth=0.30,
     c_gate_ideal_ff_per_um=0.76, c_fringe_ff_per_um=0.25,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=563,
     i_off_a_per_um=4.9e-09, i_gate_a_per_um=1.0e-10,
     long_channel_leakage_reduction=0.39)

# 65 nm.
_add(65, DeviceType.HP, l_phy_nm=25, vdd=1.1, vth=0.19,
     c_gate_ideal_ff_per_um=0.49, c_fringe_ff_per_um=0.24,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=1197,
     i_off_a_per_um=1.1e-07, i_gate_a_per_um=1.9e-08,
     long_channel_leakage_reduction=0.17)
_add(65, DeviceType.LSTP, l_phy_nm=45, vdd=1.2, vth=0.53,
     c_gate_ideal_ff_per_um=0.77, c_fringe_ff_per_um=0.24,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=519,
     i_off_a_per_um=3.2e-11, i_gate_a_per_um=1.5e-12,
     long_channel_leakage_reduction=0.63)
_add(65, DeviceType.LOP, l_phy_nm=32, vdd=0.8, vth=0.28,
     c_gate_ideal_ff_per_um=0.60, c_fringe_ff_per_um=0.24,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=573,
     i_off_a_per_um=9.5e-09, i_gate_a_per_um=2.0e-10,
     long_channel_leakage_reduction=0.36)

# 45 nm (high-k metal gate: gate leakage drops back down).
_add(45, DeviceType.HP, l_phy_nm=18, vdd=1.0, vth=0.18,
     c_gate_ideal_ff_per_um=0.41, c_fringe_ff_per_um=0.25,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=1823,
     i_off_a_per_um=2.8e-07, i_gate_a_per_um=3.8e-09,
     long_channel_leakage_reduction=0.17)
_add(45, DeviceType.LSTP, l_phy_nm=28, vdd=1.1, vth=0.50,
     c_gate_ideal_ff_per_um=0.57, c_fringe_ff_per_um=0.25,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=666,
     i_off_a_per_um=1.0e-10, i_gate_a_per_um=5.0e-12,
     long_channel_leakage_reduction=0.58)
_add(45, DeviceType.LOP, l_phy_nm=22, vdd=0.7, vth=0.26,
     c_gate_ideal_ff_per_um=0.48, c_fringe_ff_per_um=0.25,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=748,
     i_off_a_per_um=4.0e-08, i_gate_a_per_um=1.0e-10,
     long_channel_leakage_reduction=0.33)

# 32 nm.
_add(32, DeviceType.HP, l_phy_nm=13, vdd=0.9, vth=0.17,
     c_gate_ideal_ff_per_um=0.35, c_fringe_ff_per_um=0.25,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=2211,
     i_off_a_per_um=4.9e-07, i_gate_a_per_um=5.9e-09,
     long_channel_leakage_reduction=0.16)
_add(32, DeviceType.LSTP, l_phy_nm=20, vdd=1.0, vth=0.48,
     c_gate_ideal_ff_per_um=0.45, c_fringe_ff_per_um=0.25,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=786,
     i_off_a_per_um=1.7e-10, i_gate_a_per_um=8.0e-12,
     long_channel_leakage_reduction=0.55)
_add(32, DeviceType.LOP, l_phy_nm=16, vdd=0.6, vth=0.25,
     c_gate_ideal_ff_per_um=0.40, c_fringe_ff_per_um=0.25,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=916,
     i_off_a_per_um=6.6e-08, i_gate_a_per_um=3.0e-10,
     long_channel_leakage_reduction=0.30)

# 22 nm.
_add(22, DeviceType.HP, l_phy_nm=9, vdd=0.8, vth=0.16,
     c_gate_ideal_ff_per_um=0.29, c_fringe_ff_per_um=0.26,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=2626,
     i_off_a_per_um=7.4e-07, i_gate_a_per_um=8.8e-09,
     long_channel_leakage_reduction=0.15)
_add(22, DeviceType.LSTP, l_phy_nm=14, vdd=0.9, vth=0.45,
     c_gate_ideal_ff_per_um=0.37, c_fringe_ff_per_um=0.26,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=921,
     i_off_a_per_um=2.8e-10, i_gate_a_per_um=1.2e-11,
     long_channel_leakage_reduction=0.53)
_add(22, DeviceType.LOP, l_phy_nm=11, vdd=0.55, vth=0.24,
     c_gate_ideal_ff_per_um=0.33, c_fringe_ff_per_um=0.26,
     c_junction_ff_per_um=1.00, i_on_ua_per_um=1103,
     i_off_a_per_um=9.0e-08, i_gate_a_per_um=4.0e-10,
     long_channel_leakage_reduction=0.28)


def device_parameters(
    node_nm: int,
    device_type: DeviceType = DeviceType.HP,
    temperature_k: float = LEAKAGE_REFERENCE_TEMPERATURE_K,
) -> DeviceParameters:
    """Look up device parameters for a node and flavor.

    Args:
        node_nm: One of :data:`SUPPORTED_NODES_NM`.
        device_type: Device flavor.
        temperature_k: Operating temperature; leakage is scaled to it.

    Raises:
        KeyError: If the node is not in the table.
    """
    key = (node_nm, DeviceType(device_type))
    if key not in _DEVICE_TABLE:
        supported = ", ".join(str(n) for n in SUPPORTED_NODES_NM)
        raise KeyError(
            f"no device table for {node_nm} nm {device_type}; "
            f"supported nodes: {supported}"
        )
    params = _DEVICE_TABLE[key]
    if temperature_k != params.temperature_k:
        params = params.at_temperature(temperature_k)
    return params

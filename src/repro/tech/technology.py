"""The :class:`Technology` aggregate consumed by the circuit level.

A :class:`Technology` bundles, for one node / temperature / device-flavor
choice, everything a circuit model needs: the transistor parameters for the
logic devices and the SRAM-cell devices, the three wire planes, SRAM cell
geometry, and a handful of derived quantities (minimum-inverter caps, FO4
delay) that higher levels use constantly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.tech.device import (
    DeviceParameters,
    DeviceType,
    SUPPORTED_NODES_NM,
    device_parameters,
)
from repro.tech.wire import WireParameters, WireType, wire_parameters

#: Default junction/design temperature used for TDP-style analysis (K).
DEFAULT_TEMPERATURE_K = 360.0

#: Junction temperatures the device model accepts (K).
MIN_TEMPERATURE_K = 200.0
MAX_TEMPERATURE_K = 500.0

#: Minimum transistor width, as a multiple of the feature size. CACTI draws
#: minimum devices at 3x the half-pitch wide.
MIN_WIDTH_FEATURE_MULTIPLE = 3.0

#: 6T SRAM cell footprint in units of F^2 and its aspect ratio. ~146 F^2
#: matches published bulk-CMOS 6T cells across these nodes.
SRAM_CELL_AREA_F2 = 146.0
SRAM_CELL_ASPECT_RATIO = 1.46  # width / height

#: CAM cell (9T-10T, match + storage) footprint in F^2.
CAM_CELL_AREA_F2 = 320.0
CAM_CELL_ASPECT_RATIO = 2.0

#: 1T1C embedded-DRAM cell footprint in F^2 (logic-process eDRAM).
EDRAM_CELL_AREA_F2 = 26.0
EDRAM_CELL_ASPECT_RATIO = 1.0

#: eDRAM retention time at the hot design corner (s); the whole array is
#: rewritten once per retention period.
EDRAM_RETENTION_TIME_S = 40e-6


@dataclass(frozen=True)
class Technology:
    """A complete technology operating point.

    Attributes:
        node_nm: Feature size (nm); one of the supported ITRS nodes.
        temperature_k: Junction temperature leakage is evaluated at.
        device_type: Flavor used for logic/peripheral transistors.
        sram_device_type: Flavor used inside SRAM cells (usually the same
            node's higher-Vth option in real designs; by default the logic
            flavor with long-channel leakage reduction applied).
        vdd_override: Operate at a non-nominal supply (DVFS studies);
            ``None`` uses the flavor's nominal Vdd.
    """

    node_nm: int
    temperature_k: float = DEFAULT_TEMPERATURE_K
    device_type: DeviceType = DeviceType.HP
    sram_device_type: DeviceType | None = None
    vdd_override: float | None = None  # repro: dim[vdd_override: v]

    def __post_init__(self) -> None:
        if self.node_nm not in SUPPORTED_NODES_NM:
            supported = ", ".join(str(n) for n in SUPPORTED_NODES_NM)
            raise ValueError(
                f"unsupported node {self.node_nm} nm; supported: {supported}"
            )
        if not MIN_TEMPERATURE_K <= self.temperature_k <= MAX_TEMPERATURE_K:
            raise ValueError(
                f"temperature {self.temperature_k} K outside sane range"
            )

    # -- devices ----------------------------------------------------------

    @cached_property
    def device(self) -> DeviceParameters:
        """Logic/peripheral transistor parameters at temperature."""
        params = device_parameters(
            self.node_nm, self.device_type, self.temperature_k
        )
        if self.vdd_override is not None:
            params = params.at_voltage(self.vdd_override)
        return params

    @cached_property
    def sram_device(self) -> DeviceParameters:
        """Transistor parameters used for SRAM cell devices."""
        flavor = self.sram_device_type or self.device_type
        params = device_parameters(self.node_nm, flavor, self.temperature_k)
        if self.vdd_override is not None:
            params = params.at_voltage(self.vdd_override)
        return params

    @property
    def vdd(self) -> float:  # repro: dim[return: v]
        """Nominal supply voltage of the logic devices (V)."""
        return self.device.vdd

    @property
    def feature_size(self) -> float:  # repro: dim[return: m]
        """Feature size in meters."""
        return self.node_nm * 1e-9

    # -- wires ------------------------------------------------------------

    @cached_property
    def wire_local(self) -> WireParameters:
        return wire_parameters(self.node_nm, WireType.LOCAL)

    def wire(self, wire_type: WireType) -> WireParameters:
        """Wire parameters for an arbitrary plane."""
        return wire_parameters(self.node_nm, WireType(wire_type))

    # -- derived transistor quantities -------------------------------------

    @property
    def min_width(self) -> float:  # repro: dim[return: m]
        """Width of a minimum-size NMOS transistor (m)."""
        return MIN_WIDTH_FEATURE_MULTIPLE * self.feature_size

    @cached_property
    def c_inverter_min_input(self) -> float:  # repro: dim[return: f]
        """Input capacitance of a minimum inverter (NMOS + sized PMOS) (F)."""
        pmos_width = self.min_width * self.device.n_to_p_ratio
        return self.device.c_gate_total * (self.min_width + pmos_width)

    @cached_property
    def c_inverter_min_drain(self) -> float:  # repro: dim[return: f]
        """Drain (self-load) capacitance of a minimum inverter (F)."""
        pmos_width = self.min_width * self.device.n_to_p_ratio
        return self.device.c_junction * (self.min_width + pmos_width)

    @cached_property
    def r_inverter_min(self) -> float:  # repro: dim[return: ohm]
        """Effective pull-down resistance of a minimum inverter (ohm)."""
        return self.device.r_on_per_width / self.min_width

    @cached_property
    def fo4_delay(self) -> float:  # repro: dim[return: s]
        """Fanout-of-4 inverter delay (s): the canonical speed metric."""
        c_load = 4.0 * self.c_inverter_min_input + self.c_inverter_min_drain
        return 0.69 * self.r_inverter_min * c_load

    # -- SRAM / CAM cell geometry ------------------------------------------

    @property
    def sram_cell_width(self) -> float:  # repro: dim[return: m]
        """6T SRAM cell width (m)."""
        height = (SRAM_CELL_AREA_F2 / SRAM_CELL_ASPECT_RATIO) ** 0.5
        return height * SRAM_CELL_ASPECT_RATIO * self.feature_size

    @property
    def sram_cell_height(self) -> float:  # repro: dim[return: m]
        """6T SRAM cell height (m)."""
        return (SRAM_CELL_AREA_F2 / SRAM_CELL_ASPECT_RATIO) ** 0.5 * (
            self.feature_size
        )

    @property
    def sram_cell_area(self) -> float:  # repro: dim[return: m2]
        """6T SRAM cell area (m^2)."""
        return SRAM_CELL_AREA_F2 * self.feature_size**2

    @property
    def edram_cell_width(self) -> float:  # repro: dim[return: m]
        """1T1C eDRAM cell width (m)."""
        height = (EDRAM_CELL_AREA_F2 / EDRAM_CELL_ASPECT_RATIO) ** 0.5
        return height * EDRAM_CELL_ASPECT_RATIO * self.feature_size

    @property
    def edram_cell_height(self) -> float:  # repro: dim[return: m]
        """1T1C eDRAM cell height (m)."""
        return (EDRAM_CELL_AREA_F2 / EDRAM_CELL_ASPECT_RATIO) ** 0.5 * (
            self.feature_size
        )

    @property
    def cam_cell_width(self) -> float:  # repro: dim[return: m]
        """CAM cell width (m)."""
        height = (CAM_CELL_AREA_F2 / CAM_CELL_ASPECT_RATIO) ** 0.5
        return height * CAM_CELL_ASPECT_RATIO * self.feature_size

    @property
    def cam_cell_height(self) -> float:  # repro: dim[return: m]
        """CAM cell height (m)."""
        return (CAM_CELL_AREA_F2 / CAM_CELL_ASPECT_RATIO) ** 0.5 * (
            self.feature_size
        )

    def scaled(self, node_nm: int) -> "Technology":
        """Return this operating point re-targeted to another node.

        A Vdd override is not carried across nodes (nominal voltages
        differ); re-apply one explicitly if needed.
        """
        return Technology(
            node_nm=node_nm,
            temperature_k=self.temperature_k,
            device_type=self.device_type,
            sram_device_type=self.sram_device_type,
        )

    def at_voltage(self, vdd: float) -> "Technology":  # repro: dim[vdd: v]
        """Return this operating point at a different supply voltage."""
        return Technology(
            node_nm=self.node_nm,
            temperature_k=self.temperature_k,
            device_type=self.device_type,
            sram_device_type=self.sram_device_type,
            vdd_override=vdd,
        )

    @cached_property
    def max_clock_scale(self) -> float:
        """Achievable-frequency ratio vs the nominal-Vdd operating point.

        Gate delay scales as ``Vdd / I_on``; this is the DVFS frequency
        knob corresponding to :meth:`at_voltage`.
        """
        if self.vdd_override is None:
            return 1.0
        nominal = device_parameters(
            self.node_nm, self.device_type, self.temperature_k
        )
        delay_nominal = nominal.vdd / nominal.i_on
        delay_scaled = self.device.vdd / self.device.i_on
        return delay_nominal / delay_scaled

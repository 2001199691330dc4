"""Content-addressable memory (CAM) arrays.

Fully associative structures — TLBs, the issue-queue wakeup tag match, the
load/store queue address search — are CAMs: every entry compares its stored
tag against the search key in parallel. The dominant costs are the search
lines (key broadcast down every column) and the match lines (one per row,
precharged and discharged by mismatching cells), which is exactly what this
model computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from repro.array.spec import PortCounts
from repro.circuit import transistor
from repro.circuit.gates import Gate, GateKind, gate_device
from repro.circuit.logical_effort import ChainFigures, chain_figures
from repro.tech import Technology

#: Fraction of match lines that discharge on a typical search (almost all
#: rows mismatch).
_MISMATCH_FRACTION = 0.9

#: CAM cells have ~4 devices on the match path and ~9-10 total.
_CAM_CELL_DEVICES = 10.0


@dataclass(frozen=True)
class CamArray:
    """A CAM with ``entries`` rows of ``tag_bits`` searchable bits.

    Attributes:
        tech: Technology operating point.
        entries: Number of stored tags.
        tag_bits: Width of the searched key.
        search_ports: Concurrent search ports.
        ports: Read/write port configuration for entry maintenance.
    """

    tech: Technology
    entries: int
    tag_bits: int
    search_ports: int = 1
    ports: PortCounts = field(default_factory=PortCounts)

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError(f"entries must be >= 1, got {self.entries}")
        if self.tag_bits < 1:
            raise ValueError(f"tag_bits must be >= 1, got {self.tag_bits}")
        if self.search_ports < 1:
            raise ValueError("need at least one search port")

    # -- geometry -------------------------------------------------------------

    @property
    def _port_factor(self) -> float:
        extra_search = 0.5 * (self.search_ports - 1)
        return self.ports.area_cost_factor + extra_search

    @cached_property
    def cell_width(self) -> float:
        return self.tech.cam_cell_width * self._port_factor

    @cached_property
    def cell_height(self) -> float:
        return self.tech.cam_cell_height * self._port_factor

    @cached_property
    def block_width(self) -> float:
        return self.tag_bits * self.cell_width

    @cached_property
    def block_height(self) -> float:
        return self.entries * self.cell_height

    @cached_property
    def area(self) -> float:
        """Footprint incl. search drivers and the priority encoder (m^2)."""
        cells = self.block_width * self.block_height
        drivers = self.tag_bits * self._search_driver.area
        encoder = self.entries * Gate(self.tech, GateKind.NAND, fanin=2).area
        return cells + drivers + encoder

    # -- circuits ----------------------------------------------------------------

    @cached_property
    def _searchline_capacitance(self) -> float:
        """Load of one search line (column): cell compare gates + wire (F)."""
        gates = 2.0 * transistor.gate_capacitance(self.tech, self.tech.min_width)
        wire = self.tech.wire_local.capacitance_per_length * self.block_height
        return self.entries * gates + wire

    @cached_property
    def _matchline_capacitance(self) -> float:
        """Load of one match line (row): cell drains + wire (F)."""
        drain = transistor.drain_capacitance(self.tech, self.tech.min_width)
        wire = self.tech.wire_local.capacitance_per_length * self.block_width
        return self.tag_bits * drain + wire

    @cached_property
    def _search_driver(self) -> ChainFigures:
        return chain_figures(
            gate_device(self.tech), self._searchline_capacitance
        )

    # -- timing ---------------------------------------------------------------------

    @cached_property
    def search_delay(self) -> float:
        """Key-to-match-result delay (s)."""
        searchline = self._search_driver.delay
        pulldown = transistor.on_resistance(self.tech, self.tech.min_width)
        matchline = 0.69 * pulldown * self._matchline_capacitance
        encoder_depth = max(1, math.ceil(math.log2(max(2, self.entries))))
        gate = Gate(self.tech, GateKind.NAND, fanin=2, size=2.0)
        encoder = encoder_depth * gate.delay(4 * gate.input_capacitance)
        return searchline + matchline + encoder

    @cached_property
    def cycle_time(self) -> float:
        """Search plus match-line precharge (s)."""
        return self.search_delay * 1.5

    # -- energy -----------------------------------------------------------------------

    @cached_property
    def search_energy(self) -> float:
        """Dynamic energy of one search (J)."""
        vdd = self.tech.vdd
        searchlines = (
            0.5 * self.tag_bits
            * (self._search_driver.energy_per_transition)
        )
        matchlines = (
            _MISMATCH_FRACTION
            * self.entries
            * self._matchline_capacitance
            * vdd**2
        )
        return searchlines + matchlines

    @cached_property
    def write_energy(self) -> float:
        """Energy to install one entry (J)."""
        vdd = self.tech.vdd
        per_bitline = self._searchline_capacitance * vdd**2
        wordline = chain_figures(
            gate_device(self.tech),
            self.tag_bits
            * 2.0
            * transistor.gate_capacitance(self.tech, self.tech.min_width),
        ).energy_per_transition
        return self.tag_bits * per_bitline * 0.5 + wordline

    # -- leakage -------------------------------------------------------------------------

    @cached_property
    def leakage_power(self) -> float:
        """Static power of cells, drivers, and encoder (W)."""
        per_cell = _CAM_CELL_DEVICES / 2.0 * (
            transistor.subthreshold_leakage_power(
                self.tech, self.tech.min_width, long_channel=True
            )
        )
        cells = self.entries * self.tag_bits * per_cell
        drivers = self.tag_bits * self._search_driver.leakage_power
        encoder = (
            self.entries * Gate(self.tech, GateKind.NAND, fanin=2).leakage_power
        )
        return cells + drivers + encoder

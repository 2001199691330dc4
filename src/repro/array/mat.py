"""Subarray (mat) circuit model: decoder, wordline, bitline, sense amps.

One subarray is a ``rows x cols`` grid of storage cells with a row decoder
strip on its left edge and a precharge / sense-amplifier / column-mux strip
on its bottom edge. All delay and energy numbers are derived from the RC
content of those structures, CACTI style.

The model is a function of the tiling (rows, columns, mux degree) and
of a :class:`SubarrayConstants` record gathered once per technology,
port set and cell type, written in three parts: :func:`row_terms`, what
the row count alone sets; :func:`column_terms`, what the column count
and mux degree alone set; and :func:`tiling_figures`, the products and
sums that need both. :func:`subarray_figures` is their composition.
The organization search computes each distinct row count's and
(columns, mux) pair's terms once and combines them per candidate
tiling; the array it builds is assembled from the winner's
:class:`SubarrayFigures`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from repro.array.spec import CellType, PortCounts
from repro.circuit import transistor
from repro.circuit.gates import (
    GateDevice,
    GateKind,
    gate_constants,
    gate_delay,
    gate_device,
    gate_switching_energy,
)
from repro.circuit.logical_effort import ChainFigures, chain_figures
from repro.tech import Technology

#: Differential bitline sense swing as a fraction of Vdd (floored in volts).
_SWING_FRACTION = 0.125
_SWING_FLOOR_V = 0.08

#: Sense amplifier modeled as this many minimum-inverter equivalents of
#: switched capacitance and leakage, and this many inverter areas.
_SENSEAMP_CAP_EQUIV = 10.0
_SENSEAMP_AREA_EQUIV = 12.0
_SENSEAMP_LEAK_EQUIV = 6.0

#: Sense amplifier resolution delay in FO4 units.
_SENSEAMP_DELAY_FO4 = 2.0

#: Fraction of write bitline energy relative to a full Vdd swing on the
#: pair (one line swings fully, the other is already there).
_WRITE_SWING_FACTOR = 1.1


class SubarrayConstants(NamedTuple):
    """What the subarray formulas read that the tiling does not change.

    One record per (technology, ports, cell type), from
    :func:`subarray_constants`.
    """

    is_edram: bool
    cell_width: float  # repro: dim[cell_width: m]
    cell_height: float  # repro: dim[cell_height: m]
    wire_c: float  # repro: dim[wire_c: f/m]
    wire_r: float  # repro: dim[wire_r: ohm/m]
    wire_rc: float  # repro: dim[wire_rc: s/m2]
    pass_gate_c: float  # repro: dim[pass_gate_c: f]
    drain_c: float  # repro: dim[drain_c: f]
    access_r: float  # repro: dim[access_r: ohm]
    cell_current: float  # repro: dim[cell_current: a]
    sense_swing: float  # repro: dim[sense_swing: v]
    vdd: float  # repro: dim[vdd: v]
    fo4: float  # repro: dim[fo4: s]
    decoder_stage_delay: float  # repro: dim[decoder_stage_delay: s]
    decoder_stage_energy: float  # repro: dim[decoder_stage_energy: j]
    decoder_gate_leakage: float  # repro: dim[decoder_gate_leakage: w]
    decoder_gate_area: float  # repro: dim[decoder_gate_area: m2]
    senseamp_energy_per_amp: float  # repro: dim[senseamp_energy_per_amp: j]
    inverter_leakage: float  # repro: dim[inverter_leakage: w]
    inverter_area: float  # repro: dim[inverter_area: m2]
    leakage_per_cell: float  # repro: dim[leakage_per_cell: w]
    device: GateDevice


def subarray_constants(
    tech: Technology, ports: PortCounts, cell_type: CellType,
) -> SubarrayConstants:
    """Gather the tiling-independent numbers of a subarray."""
    is_edram = cell_type is CellType.EDRAM
    # Multi-port growth applies to both cell dimensions.
    port_factor = ports.area_cost_factor
    if is_edram:
        cell_width = tech.edram_cell_width * port_factor
        cell_height = tech.edram_cell_height * port_factor
    else:
        cell_width = tech.sram_cell_width * port_factor
        cell_height = tech.sram_cell_height * port_factor
    wire = tech.wire_local
    device = gate_device(tech)
    decoder = gate_constants(device, GateKind.NAND, 2, 2.0)
    decoder_load = 4 * decoder.input_capacitance
    inverter = gate_constants(device, GateKind.INV, 1, 1.0)
    # SRAM cells use longer-channel, leakage-optimized devices; two
    # devices leak per cell, and extra ports add access-device leakage.
    # A 1T1C eDRAM cell has a single (off) access device: its standing
    # leakage is far lower, with refresh carried separately.
    per_device = transistor.subthreshold_leakage_power(
        tech, tech.min_width, long_channel=True
    )
    if is_edram:
        leakage_per_cell = 0.5 * per_device  # stacked off access transistor
    else:
        port_devices = 2.0 + 1.0 * (ports.total - 1)
        leakage_per_cell = per_device * port_devices + (
            transistor.gate_leakage_power(tech, 6 * tech.min_width)
            * tech.device.long_channel_leakage_reduction
        )
    return SubarrayConstants(
        is_edram=is_edram,
        cell_width=cell_width,
        cell_height=cell_height,
        wire_c=wire.capacitance_per_length,
        wire_r=wire.resistance_per_length,
        wire_rc=wire.rc_per_length_squared,
        # Each cell hangs two pass-gate gates on its wordline.
        pass_gate_c=2.0 * transistor.gate_capacitance(tech, tech.min_width),
        drain_c=transistor.drain_capacitance(tech, tech.min_width),
        access_r=transistor.on_resistance(tech, tech.min_width),
        cell_current=tech.sram_device.i_on * tech.min_width,
        sense_swing=max(_SWING_FLOOR_V, _SWING_FRACTION * tech.vdd),
        vdd=tech.vdd,
        fo4=tech.fo4_delay,
        decoder_stage_delay=gate_delay(decoder, decoder_load),
        decoder_stage_energy=gate_switching_energy(
            decoder, decoder_load, device.vdd
        ),
        decoder_gate_leakage=decoder.leakage_power,
        decoder_gate_area=decoder.area,
        senseamp_energy_per_amp=(
            _SENSEAMP_CAP_EQUIV * tech.c_inverter_min_input * tech.vdd**2
        ),
        inverter_leakage=inverter.leakage_power,
        inverter_area=inverter.area,
        leakage_per_cell=leakage_per_cell,
        device=device,
    )


class SubarrayFigures(NamedTuple):
    """Every derived number of one subarray, from :func:`subarray_figures`.

    ``write_energy_per_column`` drives one column's bitline pair
    rail-to-rail: a write pays it once per bit written, an eDRAM row
    refresh once per column.
    """

    cell_block_width: float  # repro: dim[cell_block_width: m]
    cell_block_height: float  # repro: dim[cell_block_height: m]
    bitline_capacitance: float  # repro: dim[bitline_capacitance: f]
    decoder_delay: float  # repro: dim[decoder_delay: s]
    wordline_delay: float  # repro: dim[wordline_delay: s]
    bitline_delay: float  # repro: dim[bitline_delay: s]
    senseamp_delay: float  # repro: dim[senseamp_delay: s]
    access_delay: float  # repro: dim[access_delay: s]
    cycle_time: float  # repro: dim[cycle_time: s]
    decoder_energy: float  # repro: dim[decoder_energy: j]
    wordline_energy: float  # repro: dim[wordline_energy: j]
    bitline_read_energy: float  # repro: dim[bitline_read_energy: j]
    write_energy_per_column: float  # repro: dim[write_energy_per_column: j]
    senseamp_energy: float  # repro: dim[senseamp_energy: j]
    restore_energy: float  # repro: dim[restore_energy: j]
    read_energy: float  # repro: dim[read_energy: j]
    cell_leakage_power: float  # repro: dim[cell_leakage_power: w]
    peripheral_leakage_power: float  # repro: dim[peripheral_leakage_power: w]
    leakage_power: float  # repro: dim[leakage_power: w]
    decoder_area: float  # repro: dim[decoder_area: m2]
    senseamp_area: float  # repro: dim[senseamp_area: m2]
    width: float  # repro: dim[width: m]
    height: float  # repro: dim[height: m]


def wordline_driver(k: SubarrayConstants, cols: int) -> ChainFigures:
    """The buffer chain driving one wordline across ``cols`` cells."""
    # Load: the cells' pass-gate gates plus the wire.
    wordline_c = cols * k.pass_gate_c + k.wire_c * (cols * k.cell_width)
    return chain_figures(k.device, wordline_c)


class RowTerms(NamedTuple):
    """The terms of a subarray's figures its row count alone sets, from
    :func:`row_terms`.

    ``leaking_drivers`` and ``drawn_drivers`` are how many wordline
    drivers count toward the peripheral leakage and the decoder area.
    ``height_floor`` (and :class:`ColumnTerms`' ``width_floor``) is the
    cell block's height (width) floored at 1 nm, the side the decoder
    strip's (sense-amp strip's) area is spread along.
    """

    rows: int  # repro: dim[rows: 1]
    cell_block_height: float  # repro: dim[cell_block_height: m]
    bitline_capacitance: float  # repro: dim[bitline_capacitance: f]
    decoder_delay: float  # repro: dim[decoder_delay: s]
    bitline_delay: float  # repro: dim[bitline_delay: s]
    decoder_energy: float  # repro: dim[decoder_energy: j]
    read_energy_per_column: float  # repro: dim[read_energy_per_column: j]
    write_energy_per_column: float  # repro: dim[write_energy_per_column: j]
    decoder_leakage: float  # repro: dim[decoder_leakage: w]
    decoder_cell_area: float  # repro: dim[decoder_cell_area: m2]
    leaking_drivers: int  # repro: dim[leaking_drivers: 1]
    drawn_drivers: int  # repro: dim[drawn_drivers: 1]
    height_floor: float  # repro: dim[height_floor: m]


class ColumnTerms(NamedTuple):
    """The terms of a subarray's figures its column count and column
    mux degree alone set, from :func:`column_terms`."""

    cols: int  # repro: dim[cols: 1]
    cell_block_width: float  # repro: dim[cell_block_width: m]
    wordline_delay: float  # repro: dim[wordline_delay: s]
    senseamp_delay: float  # repro: dim[senseamp_delay: s]
    mux_delay: float  # repro: dim[mux_delay: s]
    wordline_energy: float  # repro: dim[wordline_energy: j]
    senseamp_energy: float  # repro: dim[senseamp_energy: j]
    restored_lines: float  # repro: dim[restored_lines: 1]
    driver_leakage: float  # repro: dim[driver_leakage: w]
    senseamp_leakage: float  # repro: dim[senseamp_leakage: w]
    precharge_leakage: float  # repro: dim[precharge_leakage: w]
    driver_area: float  # repro: dim[driver_area: m2]
    senseamp_area: float  # repro: dim[senseamp_area: m2]
    width_floor: float  # repro: dim[width_floor: m]


def row_terms(k: SubarrayConstants, rows: int) -> RowTerms:
    """The terms of a ``rows``-row subarray that no column count changes."""
    block_height = rows * k.cell_height
    # Bitline load: cell drains plus wire.
    bitline_c = rows * k.drain_c + k.wire_c * block_height
    # Predecode in pairs, then a final NAND; ~1 stage per 2 bits + 2.
    address_bits = max(1, math.ceil(math.log2(rows)))
    decoder_depth = 2 + math.ceil(address_bits / 2)
    # SRAM cells actively discharge the bitline by the sense swing; eDRAM
    # reads are charge sharing, set by the access-transistor RC.
    distributed_rc = 0.38 * (k.wire_r * block_height) * bitline_c
    if k.is_edram:
        bitline_delay = 0.69 * k.access_r * bitline_c + distributed_rc
    else:
        discharge = bitline_c * k.sense_swing / k.cell_current
        bitline_delay = discharge + distributed_rc
    return RowTerms(
        rows=rows,
        cell_block_height=block_height,
        bitline_capacitance=bitline_c,
        decoder_delay=decoder_depth * k.decoder_stage_delay,
        bitline_delay=bitline_delay,
        # Address buffers + predecode fan-out: ~2 gates toggle per stage.
        decoder_energy=2.0 * decoder_depth * k.decoder_stage_energy,
        read_energy_per_column=bitline_c * k.vdd * k.sense_swing,
        write_energy_per_column=_WRITE_SWING_FACTOR * bitline_c * k.vdd**2,
        decoder_leakage=rows * k.decoder_gate_leakage * 0.5,
        decoder_cell_area=rows * k.decoder_gate_area,
        leaking_drivers=min(rows, 8),
        drawn_drivers=min(rows, 16),
        height_floor=max(block_height, 1e-9),
    )


def column_terms(
    k: SubarrayConstants, cols: int, column_mux_degree: int,
    driver: ChainFigures,
) -> ColumnTerms:
    """The terms of a ``cols``-column subarray read through a
    ``column_mux_degree``:1 mux that no row count changes.

    ``driver`` is ``wordline_driver(k, cols)``, a separate argument so a
    caller scoring many mux degrees sizes it once per column count.
    """
    block_width = cols * k.cell_width
    amps = cols // column_mux_degree
    return ColumnTerms(
        cols=cols,
        cell_block_width=block_width,
        wordline_delay=driver.delay + 0.38 * (k.wire_rc * block_width**2),
        senseamp_delay=_SENSEAMP_DELAY_FO4 * k.fo4,
        mux_delay=k.fo4 if column_mux_degree > 1 else 0.0,
        wordline_energy=driver.energy_per_transition,
        senseamp_energy=amps * k.senseamp_energy_per_amp,
        # After a destructive eDRAM read the sense amps drive every open
        # column back rail-to-rail; on average half the lines move.
        restored_lines=0.5 * cols,
        driver_leakage=driver.leakage_power,
        senseamp_leakage=amps * _SENSEAMP_LEAK_EQUIV * k.inverter_leakage,
        precharge_leakage=cols * k.inverter_leakage,
        driver_area=driver.area,
        senseamp_area=(
            amps * _SENSEAMP_AREA_EQUIV * k.inverter_area
            + cols * k.inverter_area  # precharge devices
        ),
        width_floor=max(block_width, 1e-9),
    )


def tiling_figures(
    k: SubarrayConstants, row: RowTerms, column: ColumnTerms,
) -> SubarrayFigures:
    """The figures of the subarray with ``row``'s rows and ``column``'s
    columns: what is left of the model once both terms are known.

    Run once per candidate tiling, so both terms are unpacked and the
    figures built in field order rather than by name.
    """
    (rows, cell_block_height, bitline_capacitance, decoder_delay,
     bitline_delay, decoder_energy, read_energy_per_column,
     write_energy_per_column, decoder_leakage, decoder_cell_area,
     leaking_drivers, drawn_drivers, height_floor) = row
    (cols, cell_block_width, wordline_delay, senseamp_delay, mux_delay,
     wordline_energy, senseamp_energy, restored_lines, driver_leakage,
     senseamp_leakage, precharge_leakage, driver_area, senseamp_area,
     width_floor) = column
    access_delay = (
        decoder_delay + wordline_delay + bitline_delay + senseamp_delay
        + mux_delay
    )
    # Develop the swing, then precharge (a symmetric restore).
    cycle_time = wordline_delay + bitline_delay + bitline_delay

    bitline_read_energy = cols * read_energy_per_column
    restore_energy = (
        restored_lines * bitline_capacitance * k.vdd**2 if k.is_edram
        else 0.0
    )
    read_energy = (
        decoder_energy + wordline_energy + bitline_read_energy
        + senseamp_energy + restore_energy
    )

    cell_leakage_power = rows * cols * k.leakage_per_cell
    peripheral_leakage_power = (
        decoder_leakage + driver_leakage * leaking_drivers
        + senseamp_leakage + precharge_leakage
    )

    decoder_area = decoder_cell_area + driver_area * drawn_drivers
    return SubarrayFigures(
        cell_block_width, cell_block_height, bitline_capacitance,
        decoder_delay, wordline_delay, bitline_delay, senseamp_delay,
        access_delay, cycle_time,
        decoder_energy, wordline_energy, bitline_read_energy,
        write_energy_per_column, senseamp_energy, restore_energy,
        read_energy,
        cell_leakage_power, peripheral_leakage_power,
        cell_leakage_power + peripheral_leakage_power,  # leakage_power
        decoder_area, senseamp_area,
        cell_block_width + decoder_area / height_floor,  # width
        cell_block_height + senseamp_area / width_floor,  # height
    )


def subarray_figures(
    k: SubarrayConstants, rows: int, cols: int, column_mux_degree: int,
    driver: ChainFigures,
) -> SubarrayFigures:
    """The subarray model: timing, energy, leakage and area of one tiling.

    ``driver`` is ``wordline_driver(k, cols)``, a separate argument so a
    caller scoring many tilings sizes it once per column count.
    """
    return tiling_figures(
        k, row_terms(k, rows),
        column_terms(k, cols, column_mux_degree, driver),
    )

"""Bank model: a grid of subarrays stitched together by an H-tree.

A bank is ``Ndwl x Ndbl`` subarrays. On an access, one horizontal stripe of
``Ndwl`` subarrays activates (each contributes ``width / Ndwl`` of the data
after column muxing); the address is broadcast down an H-tree and the data
returns on a matching tree, both on repeated semi-global wires.

As in :mod:`repro.array.mat`, the model is one function,
:func:`bank_figures`: the organization search calls it for every
candidate, and the built array is assembled from the winner's
:class:`BankFigures`.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.array.mat import SubarrayFigures
from repro.array.spec import ArraySpec
from repro.circuit.repeater import RepeatedWire
from repro.tech import Technology
from repro.tech.wire import WireType

#: Extra area factor for intra-bank routing channels, redundancy rows, and
#: BIST — the gap between cell-array math and shipped macros.
_ROUTING_OVERHEAD = 1.22


class HtreeConstants(NamedTuple):
    """The bank H-tree's costs per meter and the bits it carries."""

    delay_per_length: float  # repro: dim[delay_per_length: s/m]
    energy_per_length: float  # repro: dim[energy_per_length: j/m]
    leakage_per_length: float  # repro: dim[leakage_per_length: w/m]
    toggling_bits: float  # repro: dim[toggling_bits: 1]
    routed_bits: int


def htree_constants(tech: Technology, spec: ArraySpec) -> HtreeConstants:
    """The H-tree record of a spec at one technology point."""
    wire = RepeatedWire(tech, WireType.SEMI_GLOBAL)
    return HtreeConstants(
        delay_per_length=wire.delay_per_length,
        energy_per_length=wire.energy_per_length,
        leakage_per_length=wire.leakage_power_per_length,
        # Address broadcast + data return, random data: half toggle.
        toggling_bits=0.5 * (spec.address_bits + spec.routed_bits),
        routed_bits=spec.routed_bits,
    )


class BankFigures(NamedTuple):
    """The derived numbers of one bank, from :func:`bank_figures`."""

    width: float  # repro: dim[width: m]
    height: float  # repro: dim[height: m]
    area: float  # repro: dim[area: m2]
    htree_length: float  # repro: dim[htree_length: m]
    htree_delay: float  # repro: dim[htree_delay: s]
    htree_energy: float  # repro: dim[htree_energy: j]
    access_time: float  # repro: dim[access_time: s]
    read_energy: float  # repro: dim[read_energy: j]
    leakage_power: float  # repro: dim[leakage_power: w]


def bank_figures(
    htree: HtreeConstants, ndwl: int, ndbl: int, sub: SubarrayFigures,
) -> BankFigures:
    """The bank model: ``ndwl x ndbl`` copies of ``sub`` plus the H-tree."""
    width = ndwl * sub.width * _ROUTING_OVERHEAD
    height = ndbl * sub.height * _ROUTING_OVERHEAD
    # Average one-way routing distance, edge to the active stripe; the
    # address goes in and the data comes out.
    length = 0.25 * (width + height)
    htree_delay = 2.0 * (htree.delay_per_length * length)
    htree_energy = htree.toggling_bits * (htree.energy_per_length * length)
    htree_leakage = 2.0 * (htree.leakage_per_length * length) * (
        htree.routed_bits / 2
    )
    return BankFigures(
        width=width,
        height=height,
        area=width * height,
        htree_length=length,
        htree_delay=htree_delay,
        htree_energy=htree_energy,
        access_time=sub.access_delay + htree_delay,
        # One horizontal stripe of ndwl subarrays fires per access.
        read_energy=ndwl * sub.read_energy + htree_energy,
        leakage_power=ndwl * ndbl * sub.leakage_power + htree_leakage,
    )

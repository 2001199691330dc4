"""Bank model: a grid of subarrays stitched together by an H-tree.

A bank is ``Ndwl x Ndbl`` subarrays. On an access, one horizontal stripe of
``Ndwl`` subarrays activates (each contributes ``width / Ndwl`` of the data
after column muxing); the address is broadcast down an H-tree and the data
returns on a matching tree, both on repeated semi-global wires.

As in :mod:`repro.array.mat`, the formulas live in one function,
:func:`bank_figures`, which the organization search calls for every
candidate and :class:`Bank` reads its fields from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from repro.array.mat import Subarray, SubarrayFigures
from repro.array.spec import ArraySpec
from repro.circuit.repeater import RepeatedWire
from repro.tech import Technology
from repro.tech.wire import WireType

if TYPE_CHECKING:
    from repro.array.organization import ArrayOrganization

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
    """The derived numbers of one bank (see :class:`Bank`)."""

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


@dataclass(frozen=True)
class Bank:
    """One bank of an SRAM array under a specific organization.

    Attributes:
        tech: Technology operating point.
        spec: The full array spec (entries here are per-bank).
        organization: Chosen (Ndwl, Ndbl, Nspd).
    """

    tech: Technology
    spec: ArraySpec
    organization: ArrayOrganization

    def __post_init__(self) -> None:
        org = self.organization
        if not org.fits(self.spec):
            raise ValueError(
                f"organization {org} does not tile {self.spec.name!r}"
            )

    # -- structure ----------------------------------------------------------

    @cached_property
    def subarray(self) -> Subarray:
        org = self.organization
        return Subarray(
            tech=self.tech,
            rows=org.rows_per_subarray(self.spec),
            cols=org.cols_per_subarray(self.spec),
            ports=self.spec.ports,
            column_mux_degree=org.nspd,
            cell_type=self.spec.cell_type,
        )

    @property
    def subarray_count(self) -> int:
        return self.organization.ndwl * self.organization.ndbl

    @property
    def active_subarrays(self) -> int:
        """Subarrays that fire on each access (one horizontal stripe)."""
        return self.organization.ndwl

    @cached_property
    def figures(self) -> BankFigures:
        org = self.organization
        return bank_figures(
            htree_constants(self.tech, self.spec), org.ndwl, org.ndbl,
            self.subarray.figures,
        )

    # -- geometry -----------------------------------------------------------

    @property
    def width(self) -> float:  # repro: dim[return: m]
        """Bank width (m)."""
        return self.figures.width

    @property
    def height(self) -> float:  # repro: dim[return: m]
        """Bank height (m)."""
        return self.figures.height

    @property
    def area(self) -> float:  # repro: dim[return: m2]
        """Bank footprint (m^2)."""
        return self.figures.area

    # -- H-tree -------------------------------------------------------------

    @property
    def htree_length(self) -> float:  # repro: dim[return: m]
        """Average one-way routing distance, edge to active stripe (m)."""
        return self.figures.htree_length

    @property
    def htree_delay(self) -> float:  # repro: dim[return: s]
        """Address-in plus data-out tree traversal (s)."""
        return self.figures.htree_delay

    # -- timing ---------------------------------------------------------------

    @property
    def access_time(self) -> float:  # repro: dim[return: s]
        """Address-at-bank to data-at-bank-edge (s)."""
        return self.figures.access_time

    @property
    def cycle_time(self) -> float:  # repro: dim[return: s]
        """Minimum time between random accesses to the bank (s)."""
        return self.subarray.cycle_time

    # -- energy -----------------------------------------------------------------

    @property
    def read_energy(self) -> float:  # repro: dim[return: j]
        """Dynamic energy of one read (J)."""
        return self.figures.read_energy

    @cached_property
    def write_energy(self) -> float:  # repro: dim[return: j]
        """Dynamic energy of one write (J)."""
        return (
            self.active_subarrays * self.subarray.write_energy
            + self.figures.htree_energy
        )

    # -- leakage -------------------------------------------------------------------

    @property
    def leakage_power(self) -> float:  # repro: dim[return: w]
        """Static power of the whole bank (W)."""
        return self.figures.leakage_power

    @cached_property
    def refresh_power(self) -> float:  # repro: dim[return: w]
        """Average eDRAM refresh power of the bank (W); zero for SRAM."""
        return self.subarray_count * self.subarray.refresh_power

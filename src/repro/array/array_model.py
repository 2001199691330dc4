"""Public facade: build an array from a spec and get its costs.

:func:`build_array` runs the internal organization optimizer (for SRAM
arrays) or the DFF model (for latch-based buffers) and returns a flat,
immutable :class:`SramArray` result that the architecture level
consumes. An SRAM array is assembled from the figures the search scored
its winning tiling with: only the write energy, the eDRAM refresh and
the inter-bank routing are computed after the search, once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro import fastpath
from repro import obs
from repro.array.dff_array import DffArrayModel
from repro.array.organization import (
    ArrayOrganization,
    OptimizationWeights,
    ScoredOrganization,
    search_organizations,
)
from repro.array.spec import ArraySpec, CellType, PortCounts
from repro.circuit.repeater import RepeatedWire
from repro.tech import Technology
from repro.tech.technology import EDRAM_RETENTION_TIME_S
from repro.tech.wire import WireType


@dataclass(frozen=True)
class SramArray:
    """The modeled costs of a built array.

    Attributes:
        spec: The input specification.
        organization: Chosen partitioning (None for DFF arrays).
        access_time: Address-to-data latency (s).
        cycle_time: Minimum random-access period (s).
        read_energy: Dynamic energy per read access (J).
        write_energy: Dynamic energy per write access (J).
        clock_energy_per_cycle: Always-on clocking energy (J/cycle);
            nonzero only for DFF arrays.
        leakage_power: Static power (W); includes eDRAM refresh.
        refresh_power: The eDRAM-refresh share of the static power (W);
            zero for SRAM/DFF arrays.
        area: Footprint (m^2).
        height: Physical height (m).
        width: Physical width (m).
        meets_timing: Whether the timing targets in the spec were met.
    """

    spec: ArraySpec
    organization: ArrayOrganization | None
    access_time: float
    cycle_time: float
    read_energy: float
    write_energy: float
    clock_energy_per_cycle: float
    leakage_power: float
    area: float
    height: float
    width: float
    meets_timing: bool
    refresh_power: float = 0.0

    @property
    def name(self) -> str:
        return self.spec.name

    def dynamic_power(
        self,
        reads_per_second: float,
        writes_per_second: float,
        clock_hz: float = 0.0,
    ) -> float:
        """Runtime dynamic power for given access rates (W)."""
        if reads_per_second < 0 or writes_per_second < 0 or clock_hz < 0:
            raise ValueError("rates must be non-negative")
        return (
            reads_per_second * self.read_energy
            + writes_per_second * self.write_energy
            + clock_hz * self.clock_energy_per_cycle
        )


def _interbank_wire(tech: Technology) -> RepeatedWire:
    return RepeatedWire(tech, WireType.SEMI_GLOBAL)


def _assemble_banks(
    tech: Technology, spec: ArraySpec, best: ScoredOrganization,
) -> SramArray:
    """Combine ``spec.n_banks`` banks of the ``best`` tiling with
    inter-bank routing."""
    sub, bank = best.subarray, best.bank
    # A write drives one bit per sense amp in each of the ndwl active
    # subarrays; the tiling admits only column counts the mux divides.
    bits = best.cols // best.nspd
    sub_write = (
        sub.decoder_energy + sub.wordline_energy
        + bits * sub.write_energy_per_column
    )
    bank_write = best.ndwl * sub_write + bank.htree_energy
    if spec.cell_type is CellType.EDRAM:
        # Every row of every subarray is rewritten once per retention time.
        row_energy = (
            sub.wordline_energy + best.cols * sub.write_energy_per_column
        )
        sub_refresh = best.rows * row_energy / EDRAM_RETENTION_TIME_S
        bank_refresh = best.ndwl * best.ndbl * sub_refresh
    else:
        bank_refresh = 0.0

    n = spec.n_banks
    grid = max(1, int(math.sqrt(n)))
    array_width = grid * bank.width * 1.05
    array_height = math.ceil(n / grid) * bank.height * 1.05
    area = array_width * array_height

    if n > 1:
        wire = _interbank_wire(tech)
        route_length = 0.5 * (array_width + array_height)
        route_delay = wire.delay(route_length)
        toggling_bits = 0.5 * (spec.address_bits + spec.routed_bits)
        route_energy = toggling_bits * wire.energy(route_length)
        route_leak = spec.routed_bits * wire.leakage_power(route_length)
    else:
        route_delay = 0.0
        route_energy = 0.0
        route_leak = 0.0

    access_time = bank.access_time + route_delay
    cycle_time = sub.cycle_time
    meets = True
    if spec.target_access_time is not None:
        meets = meets and access_time <= spec.target_access_time
    if spec.target_cycle_time is not None:
        meets = meets and cycle_time <= spec.target_cycle_time

    refresh = n * bank_refresh
    return SramArray(
        spec=spec,
        organization=best.organization,
        access_time=access_time,
        cycle_time=cycle_time,
        read_energy=bank.read_energy + route_energy,
        write_energy=bank_write + route_energy,
        clock_energy_per_cycle=0.0,
        leakage_power=n * bank.leakage_power + route_leak + refresh,
        area=area,
        height=array_height,
        width=array_width,
        meets_timing=meets,
        refresh_power=refresh,
    )


def _build_dff_array(tech: Technology, spec: ArraySpec) -> SramArray:
    model = DffArrayModel(tech=tech, spec=spec)
    meets = True
    if spec.target_access_time is not None:
        meets = model.access_time <= spec.target_access_time
    if spec.target_cycle_time is not None:
        meets = meets and model.cycle_time <= spec.target_cycle_time
    n = spec.n_banks
    return SramArray(
        spec=spec,
        organization=None,
        access_time=model.access_time,
        cycle_time=model.cycle_time,
        read_energy=model.read_energy,
        write_energy=model.write_energy,
        clock_energy_per_cycle=n * model.clock_energy_per_cycle,
        leakage_power=n * model.leakage_power,
        area=n * model.area,
        height=model.height * math.sqrt(n),
        width=model.width * math.sqrt(n),
        meets_timing=meets,
    )


#: Process-wide memo of built arrays, keyed by the content of ``(tech,
#: spec, weights)`` but the spec's name. Identical specs recur
#: constantly — per-core arrays replicated across a chip, tag+data pairs
#: of multi-instance cache levels, twin arrays under two names, and
#: sweep points sharing a tech node — and :class:`SramArray` is
#: immutable, so sharing one instance is safe.
_BUILD_MEMO = fastpath.Memo("build_array", max_entries=2048)

#: Every dataclass a build key encodes, laid out once at import.
_KEY_ENCODER = fastpath.CanonicalEncoder(
    (Technology, ArraySpec, PortCounts, OptimizationWeights),
)

#: Where ``name`` sits among an :class:`ArraySpec`'s field texts.
_NAME_SLOT = _KEY_ENCODER.names(ArraySpec).index("name")


def _build_key(
    tech: Technology, spec: ArraySpec, weights: OptimizationWeights,
) -> tuple[str, tuple[str, ...], str]:
    """The canonical texts of a build's inputs, with the spec's name
    left out: a frozen spec keeps its field texts, so dropping one
    builds nothing."""
    texts = _KEY_ENCODER.fields(spec, "spec")[1]
    return (
        _KEY_ENCODER.text(tech, "tech"),
        texts[:_NAME_SLOT] + texts[_NAME_SLOT + 1:],
        _KEY_ENCODER.text(weights, "weights"),
    )


def build_array(
    tech: Technology,
    spec: ArraySpec,
    weights: OptimizationWeights | None = None,
) -> SramArray:
    """Build the best implementation of ``spec`` at ``tech``.

    For SRAM arrays this runs the internal organization search; for DFF
    arrays the synthesized-register model is used directly. Results are
    memoized process-wide on the content of the inputs (the canonical
    encoding every cache key derives from), all but the spec's name: no
    number depends on it, so arrays that differ only in name share one
    build, each returned under its own spec. Under
    :func:`repro.fastpath.disabled` the memo is bypassed.
    """
    weights = weights or OptimizationWeights()
    built = _BUILD_MEMO.get_or_compute(
        _build_key(tech, spec, weights),
        lambda: _build_array_uncached(tech, spec, weights),
    )
    if built.spec.name != spec.name:  # built for a twin
        built = replace(built, spec=spec)
    return built


def _build_array_uncached(
    tech: Technology,
    spec: ArraySpec,
    weights: OptimizationWeights,
) -> SramArray:
    with obs.span("array.build", array=spec.name,
                  entries=spec.entries, width_bits=spec.width_bits):
        if spec.cell_type is CellType.DFF:
            return _build_dff_array(tech, spec)
        best = search_organizations(tech, spec, weights)[0]
        with obs.span("array.assemble", banks=spec.n_banks):
            return _assemble_banks(tech, spec, best)

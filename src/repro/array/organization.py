"""The internal organization optimizer — McPAT's CACTI-style search.

Given an :class:`~repro.array.spec.ArraySpec`, the search sweeps the
partitioning space (wordline divisions ``Ndwl``, bitline divisions ``Ndbl``,
row packing / column mux ``Nspd``), evaluates every tiling that is
physically sensible, filters by the timing target, and ranks the survivors
with a weighted objective over delay, energy, leakage, and area — so the
architect never specifies circuit-level parameters, which is one of the
paper's headline usability claims.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro import fastpath
from repro.array.spec import ArraySpec
from repro.tech import Technology

if TYPE_CHECKING:
    from repro.array.bank import Bank

#: Subarray dimension limits: outside these, peripheral overheads or RC
#: degradation make the tiling pointless and the model unreliable.
_MIN_ROWS = 4
_MAX_ROWS = 1024
_MIN_COLS = 8
_MAX_COLS = 4096
_MAX_SUBARRAYS = 512

#: eDRAM bitlines are charge-shared: beyond this many rows the read
#: signal margin is gone.
_MAX_ROWS_EDRAM = 512

_POWERS_OF_TWO = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class ArrayOrganization:
    """One candidate physical organization.

    Attributes:
        ndwl: Wordline divisions (subarray grid width).
        ndbl: Bitline divisions (subarray grid height).
        nspd: Blocks packed per physical row == column mux degree.
    """

    ndwl: int
    ndbl: int
    nspd: int

    def __post_init__(self) -> None:
        for name in ("ndwl", "ndbl", "nspd"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two")

    def rows_per_subarray(self, spec: ArraySpec) -> int:
        return spec.entries_per_bank // (self.ndbl * self.nspd)

    def cols_per_subarray(self, spec: ArraySpec) -> int:
        return spec.width_bits * self.nspd // self.ndwl

    def fits(self, spec: ArraySpec) -> bool:
        """Whether this organization tiles the spec exactly and sanely."""
        entries, width = spec.entries_per_bank, spec.width_bits
        if entries % (self.ndbl * self.nspd):
            return False
        if (width * self.nspd) % self.ndwl:
            return False
        rows = self.rows_per_subarray(spec)
        cols = self.cols_per_subarray(spec)
        if cols % self.nspd:
            return False  # column mux cannot select evenly
        max_rows = _MAX_ROWS
        from repro.array.spec import CellType

        if spec.cell_type is CellType.EDRAM:
            max_rows = _MAX_ROWS_EDRAM
        if not _MIN_ROWS <= rows <= max_rows:
            return False
        if not _MIN_COLS <= cols <= _MAX_COLS:
            return False
        if self.ndwl * self.ndbl > _MAX_SUBARRAYS:
            return False
        return True

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"(Ndwl={self.ndwl}, Ndbl={self.ndbl}, Nspd={self.nspd})"


@dataclass(frozen=True)
class OptimizationWeights:
    """Relative weights of the organization-ranking objective.

    Each metric is normalized by the best value any candidate achieves, so
    weights express relative importance, not units.
    """

    delay: float = 1.0
    dynamic_energy: float = 1.0
    leakage: float = 1.0
    area: float = 1.0

    def __post_init__(self) -> None:
        values = (self.delay, self.dynamic_energy, self.leakage, self.area)
        if any(w < 0 for w in values):
            raise ValueError("weights must be non-negative")
        if not any(values):
            raise ValueError("at least one weight must be positive")


def candidate_organizations(spec: ArraySpec) -> Iterator[ArrayOrganization]:
    """Yield every organization that tiles ``spec``."""
    for ndwl in _POWERS_OF_TWO:
        for ndbl in _POWERS_OF_TWO:
            for nspd in (1, 2, 4, 8):
                org = ArrayOrganization(ndwl=ndwl, ndbl=ndbl, nspd=nspd)
                if org.fits(spec):
                    yield org


#: Below this many candidates the prune is skipped — full evaluation is
#: already cheap and the rank statistics would be too thin to trust.
_PRUNE_MIN_CANDIDATES = 48

#: Survivors kept by the combined (equal-weight, proxy-normalized)
#: objective. Across the validation presets the exact winner's combined
#: proxy rank never exceeds 26; 40 leaves a wide margin.
_PRUNE_KEEP_COMBINED = 40

#: Survivors kept per metric axis, so the candidate that anchors each
#: metric's normalization term survives. Measured worst-case proxy rank
#: of the true per-metric optimum on the validation presets: delay 9,
#: energy 23, leakage 1, area 1.
_PRUNE_KEEP_PER_METRIC = (16, 32, 12, 12)


def _proxy_metrics(
    tech: Technology, spec: ArraySpec, org: ArrayOrganization,
) -> tuple[float, float, float, float]:
    """Cheap analytic (delay, energy, leakage, area) bounds for one tiling.

    First-order RC/geometry terms only — a few scalar ops per candidate,
    no :class:`~repro.array.bank.Bank` or subarray construction. Used
    solely to *rank* candidates for pruning; the survivors are then
    evaluated with the full circuit model, so these bounds never leak
    into reported numbers.
    """
    from repro.array.spec import CellType
    from repro.circuit import transistor
    from repro.circuit.repeater import RepeatedWire
    from repro.tech.wire import WireType

    rows = org.rows_per_subarray(spec)
    cols = org.cols_per_subarray(spec)
    n_sub = org.ndwl * org.ndbl
    port_factor = spec.ports.area_cost_factor
    if spec.cell_type is CellType.EDRAM:
        cell_width_m = tech.edram_cell_width * port_factor
        cell_height_m = tech.edram_cell_height * port_factor
    else:
        cell_width_m = tech.sram_cell_width * port_factor
        cell_height_m = tech.sram_cell_height * port_factor
    block_width_m = cols * cell_width_m
    block_height_m = rows * cell_height_m
    bank_width_m = org.ndwl * block_width_m
    bank_height_m = org.ndbl * block_height_m

    wire = tech.wire_local
    drain = transistor.drain_capacitance(tech, tech.min_width)
    bitline_cap = (
        rows * drain + wire.capacitance_per_length * block_height_m
    )
    swing = max(0.08, 0.125 * tech.vdd)
    cell_current = tech.sram_device.i_on * tech.min_width
    # The inter-subarray H-tree rides the memoized repeater solution, so
    # its velocity/energy figures are one dictionary lookup each.
    htree = RepeatedWire(tech, WireType.SEMI_GLOBAL)
    htree_length_m = 0.25 * (bank_width_m + bank_height_m)

    delay = (
        math.log2(max(2, rows)) * tech.fo4_delay              # decoder
        + bitline_cap * swing / cell_current                  # discharge
        + 0.38 * wire.resistance_per_length * block_height_m * bitline_cap
        + 0.38 * wire.rc_per_length_squared * block_width_m**2  # wordline
        + 2.0 * htree.delay_per_length * htree_length_m       # H-tree
    )
    bits = 0.5 * (spec.address_bits + spec.routed_bits)
    energy = (
        org.ndwl * cols * bitline_cap * tech.vdd * swing      # bitlines
        + bits * htree.energy_per_length * htree_length_m     # H-tree
    )
    # Cell leakage is organization-invariant (total cell count is fixed);
    # rank on the peripheral strips and H-tree repeaters instead.
    leakage = (
        n_sub * (rows + 2.0 * cols)
        + spec.routed_bits * htree.leakage_power_per_length * htree_length_m
        / max(1e-30, tech.subthreshold_leakage_power(tech.min_width))
    )
    area = bank_width_m * bank_height_m + n_sub * (
        rows * 6.0 * tech.feature_size * cell_height_m
        + cols * 14.0 * tech.feature_size * cell_width_m
    )
    return delay, energy, leakage, area


def _prune_candidates(
    tech: Technology,
    spec: ArraySpec,
    candidates: list[ArrayOrganization],
) -> list[ArrayOrganization]:
    """Keep candidates ranked near the top of any metric's proxy bound.

    The kept set is weight-independent (the union of the per-metric
    front-runners), so differently-weighted searches over the same spec
    evaluate the same candidate pool and stay mutually consistent.
    Original candidate order is preserved.
    """
    scores = [_proxy_metrics(tech, spec, org) for org in candidates]
    keep: set[int] = set()
    mins = [
        max(min(score[axis] for score in scores), 1e-300)
        for axis in range(4)
    ]
    combined = [
        sum(score[axis] / mins[axis] for axis in range(4))
        for score in scores
    ]
    by_combined = sorted(range(len(candidates)), key=lambda k: combined[k])
    keep.update(by_combined[:_PRUNE_KEEP_COMBINED])
    for axis, keep_n in enumerate(_PRUNE_KEEP_PER_METRIC):
        ranked = sorted(range(len(candidates)), key=lambda k: scores[k][axis])
        keep.update(ranked[:keep_n])
    return [org for k, org in enumerate(candidates) if k in keep]


def search_organizations(
    tech: Technology,
    spec: ArraySpec,
    weights: OptimizationWeights | None = None,
) -> list["Bank"]:
    """Evaluate candidate organizations, best first.

    Candidates that meet the spec's timing targets sort before candidates
    that do not; within each group the weighted normalized objective ranks
    them. With the :mod:`repro.fastpath` switch on (the default) the
    field is rank-pruned with cheap analytic bounds first and only the
    front-runners get the full circuit model; under
    ``fastpath.disabled()`` every feasible tiling is evaluated and
    ranked.

    Args:
        tech: Technology operating point.
        spec: The array to tile.
        weights: Ranking objective weights (all-equal by default).

    Raises:
        ValueError: If no organization tiles the spec at all.
    """
    from repro.array.bank import Bank

    weights = weights or OptimizationWeights()
    candidates = list(candidate_organizations(spec))
    if fastpath.enabled() and len(candidates) > _PRUNE_MIN_CANDIDATES:
        candidates = _prune_candidates(tech, spec, candidates)
    banks = [
        Bank(tech=tech, spec=spec, organization=org)
        for org in candidates
    ]
    if not banks:
        raise ValueError(
            f"no feasible organization for array {spec.name!r} "
            f"({spec.entries_per_bank} entries x {spec.width_bits} bits)"
        )

    best_delay = min(b.access_time for b in banks)
    best_energy = min(b.read_energy for b in banks)
    best_leak = min(b.leakage_power for b in banks)
    best_area = min(b.area for b in banks)

    def objective(bank: "Bank") -> float:
        return (
            weights.delay * bank.access_time / best_delay
            + weights.dynamic_energy * bank.read_energy / best_energy
            + weights.leakage * bank.leakage_power / best_leak
            + weights.area * bank.area / best_area
        )

    def meets_timing(bank: "Bank") -> bool:
        if (spec.target_access_time is not None
                and bank.access_time > spec.target_access_time):
            return False
        if (spec.target_cycle_time is not None
                and bank.cycle_time > spec.target_cycle_time):
            return False
        return True

    return sorted(banks, key=lambda b: (not meets_timing(b), objective(b)))

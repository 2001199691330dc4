"""The internal organization optimizer — McPAT's CACTI-style search.

Given an :class:`~repro.array.spec.ArraySpec`, the search sweeps the
partitioning space (wordline divisions ``Ndwl``, bitline divisions ``Ndbl``,
row packing / column mux ``Nspd``), evaluates every tiling that is
physically sensible, filters by the timing target, and ranks the survivors
with a weighted objective over delay, energy, leakage, and area — so the
architect never specifies circuit-level parameters, which is one of the
paper's headline usability claims.

Every tiling is scored exactly, in plain float arithmetic: the
technology-dependent numbers are gathered once per search
(:func:`~repro.array.mat.subarray_constants`,
:func:`~repro.array.bank.htree_constants`) and each candidate runs the
array model itself, :func:`~repro.array.mat.subarray_figures` and
:func:`~repro.array.bank.bank_figures`. Each
:class:`ScoredOrganization` keeps those figures, so the built array is
assembled from the winner's without computing it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from repro.array.bank import BankFigures, bank_figures, htree_constants
from repro.array.mat import (
    SubarrayFigures,
    subarray_constants,
    subarray_figures,
    wordline_driver,
)
from repro.array.spec import ArraySpec, CellType
from repro.tech import Technology

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
        for name, weight in zip(
            ("delay", "dynamic_energy", "leakage", "area"), values,
        ):
            # Chained so that NaN fails it too (``weight < 0`` would not).
            if not 0 <= weight < math.inf:
                raise ValueError(
                    f"weight {name} must be finite and >= 0, got {weight!r}"
                )
        if not any(values):
            raise ValueError("at least one weight must be positive")


def _max_rows(spec: ArraySpec) -> int:
    return _MAX_ROWS_EDRAM if spec.cell_type is CellType.EDRAM else _MAX_ROWS


def _subarray_shape(
    entries: int, width: int, max_rows: int, ndwl: int, ndbl: int, nspd: int,
) -> tuple[int, int] | None:
    """(rows, cols) of one subarray if the tiling is exact and sane."""
    if entries % (ndbl * nspd):
        return None
    if (width * nspd) % ndwl:
        return None
    rows = entries // (ndbl * nspd)
    cols = width * nspd // ndwl
    if cols % nspd:
        return None  # column mux cannot select evenly
    if not _MIN_ROWS <= rows <= max_rows:
        return None
    if not _MIN_COLS <= cols <= _MAX_COLS:
        return None
    if ndwl * ndbl > _MAX_SUBARRAYS:
        return None
    return rows, cols


def _tilings(spec: ArraySpec) -> Iterator[tuple[int, int, int, int, int]]:
    """``(ndwl, ndbl, nspd, rows, cols)`` of every tiling, in search order."""
    entries, width = spec.entries_per_bank, spec.width_bits
    max_rows = _max_rows(spec)
    for ndwl in _POWERS_OF_TWO:
        for ndbl in _POWERS_OF_TWO:
            for nspd in (1, 2, 4, 8):
                shape = _subarray_shape(
                    entries, width, max_rows, ndwl, ndbl, nspd
                )
                if shape is not None:
                    yield ndwl, ndbl, nspd, shape[0], shape[1]


def candidate_organizations(spec: ArraySpec) -> Iterator[ArrayOrganization]:
    """Yield every organization that tiles ``spec``, in search order."""
    for ndwl, ndbl, nspd, _, _ in _tilings(spec):
        yield ArrayOrganization(ndwl=ndwl, ndbl=ndbl, nspd=nspd)


class ScoredOrganization(NamedTuple):
    """One candidate tiling and the model of one bank built with it.

    ``subarray`` and ``bank`` are the tiling's figures; the five floats
    before them are the ones the search ranks by, copied out of them.
    Each subarray is ``rows x cols``.
    """

    ndwl: int
    ndbl: int
    nspd: int
    access_time: float  # repro: dim[access_time: s]
    cycle_time: float  # repro: dim[cycle_time: s]
    read_energy: float  # repro: dim[read_energy: j]
    leakage_power: float  # repro: dim[leakage_power: w]
    area: float  # repro: dim[area: m2]
    rows: int
    cols: int
    subarray: SubarrayFigures
    bank: BankFigures

    @property
    def organization(self) -> ArrayOrganization:
        return ArrayOrganization(ndwl=self.ndwl, ndbl=self.ndbl, nspd=self.nspd)


def search_organizations(
    tech: Technology,
    spec: ArraySpec,
    weights: OptimizationWeights | None = None,
) -> list[ScoredOrganization]:
    """Score every tiling of ``spec``, best first.

    Candidates that meet the spec's timing targets sort first, ranked by
    the weighted normalized objective. The others follow, closest first:
    by how far they miss the access-time target, then the cycle-time
    target, then by the objective. So when no tiling meets the targets,
    the best is the one that comes closest, not the untargeted pick.
    Ties keep enumeration order (:func:`candidate_organizations`).
    Every tiling gets the full circuit model; the search is the same with
    :func:`repro.fastpath.disabled`.

    Args:
        tech: Technology operating point.
        spec: The array to tile.
        weights: Ranking objective weights (all-equal by default).

    Raises:
        ValueError: If no organization tiles the spec at all.
    """
    weights = weights or OptimizationWeights()
    cells = subarray_constants(tech, spec.ports, spec.cell_type)
    htree = htree_constants(tech, spec)
    tilings = list(_tilings(spec))
    # The wordline driver depends on the column count alone: size each
    # distinct count's chain once.
    drivers = {
        cols: wordline_driver(cells, cols)
        for cols in sorted({tiling[4] for tiling in tilings})
    }
    scored = []
    for ndwl, ndbl, nspd, rows, cols in tilings:
        sub = subarray_figures(cells, rows, cols, nspd, drivers[cols])
        bank = bank_figures(htree, ndwl, ndbl, sub)
        scored.append(ScoredOrganization(
            ndwl, ndbl, nspd, bank.access_time, sub.cycle_time,
            bank.read_energy, bank.leakage_power, bank.area,
            rows, cols, sub, bank,
        ))
    if not scored:
        raise ValueError(
            f"no feasible organization for array {spec.name!r} "
            f"({spec.entries_per_bank} entries x {spec.width_bits} bits)"
        )

    best_delay = min(c.access_time for c in scored)
    best_energy = min(c.read_energy for c in scored)
    best_leak = min(c.leakage_power for c in scored)
    best_area = min(c.area for c in scored)

    def objective(c: ScoredOrganization) -> float:
        return (
            weights.delay * c.access_time / best_delay
            + weights.dynamic_energy * c.read_energy / best_energy
            + weights.leakage * c.leakage_power / best_leak
            + weights.area * c.area / best_area
        )

    def miss(value: float, target: float | None) -> float:
        return 0.0 if target is None else max(0.0, value - target)

    return sorted(scored, key=lambda c: (
        miss(c.access_time, spec.target_access_time),
        miss(c.cycle_time, spec.target_cycle_time),
        objective(c),
    ))

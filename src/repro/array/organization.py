"""The internal organization optimizer — McPAT's CACTI-style search.

Given an :class:`~repro.array.spec.ArraySpec`, the search sweeps the
partitioning space (wordline divisions ``Ndwl``, bitline divisions ``Ndbl``,
row packing / column mux ``Nspd``), evaluates every tiling that is
physically sensible, filters by the timing target, and ranks the survivors
with a weighted objective over delay, energy, leakage, and area — so the
architect never specifies circuit-level parameters, which is one of the
paper's headline usability claims.

Every tiling is scored exactly, in plain float arithmetic, and each
search does per tiling only the work that the tiling itself adds: the
technology-dependent numbers are gathered once per search
(:func:`~repro.array.mat.subarray_constants`,
:func:`~repro.array.bank.htree_constants`), the subarray terms once per
distinct row count (:func:`~repro.array.mat.row_terms`) and per
distinct (columns, mux) pair (:func:`~repro.array.mat.column_terms`),
and each candidate combines them
(:func:`~repro.array.mat.tiling_figures`) and runs
:func:`~repro.array.bank.bank_figures`. Each :class:`ScoredOrganization`
keeps those figures, so the built array is assembled from the winner's
without computing it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, NamedTuple

from repro import obs
from repro.array.bank import BankFigures, bank_figures, htree_constants
from repro.array.mat import (
    SubarrayFigures,
    column_terms,
    row_terms,
    subarray_constants,
    tiling_figures,
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
_MUX_DEGREES = (1, 2, 4, 8)


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


def _tilings(spec: ArraySpec) -> list[tuple[int, int, int, int, int]]:
    """``(ndwl, ndbl, nspd, rows, cols)`` of every tiling, in search order.

    A tiling is exact and sane when its bitline divisions and row
    packing (``ndbl``, ``nspd``) split the bank's entries into subarrays
    of a sane row count, its wordline divisions and row packing
    (``ndwl``, ``nspd``) split the packed row into a sane column count
    the mux divides, and it has at most ``_MAX_SUBARRAYS`` subarrays.
    """
    entries, width = spec.entries_per_bank, spec.width_bits
    max_rows = _max_rows(spec)
    rows_of: dict[int, list[tuple[int, int]]] = {}
    for ndbl in _POWERS_OF_TWO:
        rows_of[ndbl] = []
        for nspd in _MUX_DEGREES:
            rows, spare = divmod(entries, ndbl * nspd)
            if not spare and _MIN_ROWS <= rows <= max_rows:
                rows_of[ndbl].append((nspd, rows))
    cols_of: dict[int, dict[int, int]] = {}
    for ndwl in _POWERS_OF_TWO:
        cols_of[ndwl] = {}
        for nspd in _MUX_DEGREES:
            cols, spare = divmod(width * nspd, ndwl)
            # The column mux must select evenly.
            if not spare and not cols % nspd and (
                _MIN_COLS <= cols <= _MAX_COLS
            ):
                cols_of[ndwl][nspd] = cols
    return [
        (ndwl, ndbl, nspd, rows, cols_of[ndwl][nspd])
        for ndwl in _POWERS_OF_TWO
        for ndbl in _POWERS_OF_TWO if ndwl * ndbl <= _MAX_SUBARRAYS
        for nspd, rows in rows_of[ndbl] if nspd in cols_of[ndwl]
    ]


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
    :func:`repro.fastpath.disabled`. Traced as the ``array.search``
    span, whose attributes count the tilings scored (``tilings``) and
    the distinct row and (columns, mux) terms they combined
    (``row_terms``, ``column_terms``).

    Args:
        tech: Technology operating point.
        spec: The array to tile.
        weights: Ranking objective weights (all-equal by default).

    Raises:
        ValueError: If no organization tiles the spec at all.
    """
    weights = weights or OptimizationWeights()
    with obs.span("array.search") as live:
        tilings = _tilings(spec)
        if not tilings:
            raise ValueError(
                f"no feasible organization for array {spec.name!r} "
                f"({spec.entries_per_bank} entries x {spec.width_bits} bits)"
            )
        cells = subarray_constants(tech, spec.ports, spec.cell_type)
        htree = htree_constants(tech, spec)
        # Each term depends on part of the tiling alone: compute each
        # distinct one once. The wordline driver is set by the column count.
        rows_of = {
            rows: row_terms(cells, rows)
            for rows in sorted({tiling[3] for tiling in tilings})
        }
        drivers = {
            cols: wordline_driver(cells, cols)
            for cols in sorted({tiling[4] for tiling in tilings})
        }
        columns_of = {
            (cols, nspd): column_terms(cells, cols, nspd, drivers[cols])
            for cols, nspd in sorted({
                (tiling[4], tiling[2]) for tiling in tilings
            })
        }
        scored = []
        for ndwl, ndbl, nspd, rows, cols in tilings:
            sub = tiling_figures(cells, rows_of[rows], columns_of[cols, nspd])
            bank = bank_figures(htree, ndwl, ndbl, sub)
            scored.append(ScoredOrganization(
                ndwl, ndbl, nspd, bank.access_time, sub.cycle_time,
                bank.read_energy, bank.leakage_power, bank.area,
                rows, cols, sub, bank,
            ))
        if live is not None:
            live.attrs.update(tilings=len(tilings), row_terms=len(rows_of),
                              column_terms=len(columns_of))

        best_delay = min(map(attrgetter("access_time"), scored))
        best_energy = min(map(attrgetter("read_energy"), scored))
        best_leak = min(map(attrgetter("leakage_power"), scored))
        best_area = min(map(attrgetter("area"), scored))
        access_target = spec.target_access_time
        cycle_target = spec.target_cycle_time
        # Per tiling: how far it misses each target (0.0 when it meets it or
        # there is none), then the weighted normalized objective.
        keys = [
            (
                0.0 if access_target is None
                else max(0.0, c.access_time - access_target),
                0.0 if cycle_target is None
                else max(0.0, c.cycle_time - cycle_target),
                weights.delay * c.access_time / best_delay
                + weights.dynamic_energy * c.read_energy / best_energy
                + weights.leakage * c.leakage_power / best_leak
                + weights.area * c.area / best_area,
            )
            for c in scored
        ]
        # A stable sort: ties keep enumeration order.
        order = sorted(range(len(scored)), key=keys.__getitem__)
        return [scored[i] for i in order]

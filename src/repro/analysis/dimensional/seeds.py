"""Seed facts for the dimensional analysis.

Inference starts from three seed sources, in increasing precedence:

1. The canonical unit-suffix convention already enforced by ``UNIT001``
   (``_s``, ``_w``, ``_j``, ``_f``, ``_m``, ``_m2``, ``_v``, ``_a``,
   ``_ohm``, ``_k``, ``_hz``): any identifier — variable, parameter,
   dataclass field, or function name — carrying a suffix is *pinned* to
   that dimension.
2. The helper constants in :mod:`repro.units` (``FF`` is farads, ``GHZ``
   is hertz, ...), via :data:`CONSTANT_DIMS`.
3. Explicit ``# repro: dim[name: unit, return: unit]`` annotation
   comments for the handful of signatures inference cannot reach
   (unsuffixed properties like ``Technology.feature_size``, per-length
   densities like ``F/m`` that have no suffix spelling).

An annotation pin beats a suffix pin on the same name, and both beat
inference: pinned names are what call sites and assignments are checked
*against*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.dimensional.dim import (
    AMPERE,
    BIT,
    Dim,
    FARAD,
    HERTZ,
    JOULE,
    KELVIN,
    METER,
    OHM,
    SECOND,
    SQUARE_METER,
    VOLT,
    WATT,
    div,
    parse_unit_expr,
)
from repro.analysis.directives import Directives

#: Canonical identifier suffix -> dimension. ``m2`` before ``m`` so the
#: longest suffix wins.
SUFFIX_DIMS: dict[str, Dim] = {
    "m2": SQUARE_METER,
    "s": SECOND,
    "w": WATT,
    "j": JOULE,
    "f": FARAD,
    "m": METER,
    "v": VOLT,
    "a": AMPERE,
    "ohm": OHM,
    "k": KELVIN,
    "hz": HERTZ,
}

#: Dimension of every numeric constant exported by :mod:`repro.units`.
#: The unit-constants test asserts this table and the module agree
#: member-for-member.
CONSTANT_DIMS: dict[str, Dim] = {
    "NM": METER, "UM": METER, "MM": METER,
    "UM2": SQUARE_METER, "MM2": SQUARE_METER,
    "PS": SECOND, "NS": SECOND, "US": SECOND,
    "MHZ": HERTZ, "GHZ": HERTZ,
    "FF": FARAD, "PF": FARAD, "AF": FARAD,
    "FJ": JOULE, "PJ": JOULE, "NJ": JOULE,
    "UA": AMPERE, "MA": AMPERE,
    "KOHM": OHM,
    "MW": WATT, "UW": WATT,
    "MV": VOLT,
    "KB": BIT, "MB": BIT, "GB": BIT,
    "BOLTZMANN_EV": div(JOULE, KELVIN),  # eV/K: energy per temperature
    "ROOM_TEMPERATURE_K": KELVIN,
    "EPSILON_0": div(FARAD, METER),
    "EPSILON_SIO2": div(FARAD, METER),
}


def suffix_dim(name: str) -> Dim | None:
    """Dimension pinned by ``name``'s unit suffix, if it has one.

    Matching is case-insensitive so module constants
    (``DEFAULT_TEMPERATURE_K``) participate. Rate and conversion names
    are exempt, mirroring ``UNIT001``: in ``reads_per_s`` or
    ``celsius_to_kelvin`` the trailing unit is a denominator or target,
    not the unit of the stored quantity.
    """
    low = name.lower()
    for suffix, dimension in SUFFIX_DIMS.items():
        if not low.endswith("_" + suffix):
            continue
        stem = low[: -len(suffix) - 1]
        if stem in ("per", "to") or stem.endswith(("_per", "_to")):
            return None
        return dimension
    return None


@dataclass(frozen=True)
class DimComments:
    """Per-file ``# repro: dim[...]`` annotation table.

    Attributes:
        by_line: 1-based line -> {name: pinned dimension}; the key
            ``"return"`` pins a function's return dimension when the
            comment sits in its signature.
        errors: (line, message) pairs for malformed annotations,
            reported by the runner as ``DIMNOTE`` findings rather than
            silently ignored.
    """

    by_line: dict[int, dict[str, Dim]] = field(default_factory=dict)
    errors: list[tuple[int, str]] = field(default_factory=list)


def dim_table(directives: Directives) -> DimComments:
    """Parse a module's ``dim[...]`` directives into its pin table.

    Each pins one or more names of the statement or signature the
    program model's directive binder attaches it to:
    ``# repro: dim[cap: f, return: s]``.
    """
    table = DimComments(errors=directives.notes("dim"))
    for directive in directives.of("dim"):
        lineno = directive.line
        entries = table.by_line.setdefault(lineno, {})
        for item in directive.body.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, unit_text = item.partition(":")
            name = name.strip()
            if not sep or not name.isidentifier():
                table.errors.append(
                    (lineno, f"malformed dim annotation entry {item!r}; "
                             "expected 'name: unit'")
                )
                continue
            try:
                entries[name] = parse_unit_expr(unit_text)
            except ValueError as exc:
                table.errors.append((lineno, str(exc)))
    return table

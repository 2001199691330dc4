"""Whole-program dimensional analysis (``DIM001``–``DIM004``).

:func:`solve_fixpoint` solves parameter/return dimension facts over the
shared program model (:mod:`repro.analysis.program`) to a fixpoint, and
:func:`check_module` re-checks one target module with frozen facts. See
:mod:`repro.analysis.dimensional.dim` for the lattice and
:mod:`repro.analysis.dimensional.engine` for the transfer functions.
"""

from __future__ import annotations

from repro.analysis.dimensional.dim import (
    ANY,
    DIMENSIONLESS,
    Dim,
    DimValue,
    POLY,
    UNKNOWN,
    format_dim,
    parse_unit_expr,
)
from repro.analysis.dimensional.engine import check_module, solve_fixpoint
from repro.analysis.dimensional.seeds import (
    CONSTANT_DIMS,
    SUFFIX_DIMS,
    suffix_dim,
)

__all__ = [
    "ANY",
    "CONSTANT_DIMS",
    "DIMENSIONLESS",
    "Dim",
    "DimValue",
    "POLY",
    "SUFFIX_DIMS",
    "UNKNOWN",
    "check_module",
    "format_dim",
    "parse_unit_expr",
    "solve_fixpoint",
    "suffix_dim",
]

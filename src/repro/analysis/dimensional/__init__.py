"""Whole-program dimensional analysis (``DIM001``–``DIM004``).

Public entry point: :func:`analyze_dimensions` builds the project call
graph from the lint context, solves parameter/return dimension facts to
a fixpoint, and re-checks the requested target modules with frozen
facts. See :mod:`repro.analysis.dimensional.dim` for the lattice and
:mod:`repro.analysis.dimensional.engine` for the transfer functions.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.context import ModuleSource
from repro.analysis.dimensional.callgraph import Project, build_project
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
from repro.analysis.finding import Finding

__all__ = [
    "ANY",
    "CONSTANT_DIMS",
    "DIMENSIONLESS",
    "Dim",
    "DimValue",
    "POLY",
    "Project",
    "SUFFIX_DIMS",
    "UNKNOWN",
    "analyze_dimensions",
    "build_project",
    "check_module",
    "format_dim",
    "parse_unit_expr",
    "solve_fixpoint",
    "suffix_dim",
]


def analyze_dimensions(
    targets: Iterable[ModuleSource],
    context: Iterable[ModuleSource],
    project: Project | None = None,
) -> dict[str, list[Finding]]:
    """Run the dimensional pass and report findings for ``targets``.

    ``context`` is every parsed module the call graph may cross into
    (typically the whole installed package plus the explicit targets);
    ``targets`` is the subset whose findings the caller wants. Pass a
    prebuilt ``project`` (the registry's shared call graph) to skip the
    collection pre-pass. Returns a mapping of target path -> sorted
    findings.
    """
    target_list = list(targets)
    if project is None:
        project = build_project(list(context))
    solve_fixpoint(project)
    results: dict[str, list[Finding]] = {}
    for source in target_list:
        if source.path not in project.modules:
            results[source.path] = []
            continue
        results[source.path] = sorted(check_module(project, source.path))
    return results

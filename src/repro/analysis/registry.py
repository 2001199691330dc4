"""Unified multi-pass analysis registry.

Four analysis passes ship with the tree — the per-module ``base`` lint
(CP/NUM/UNIT/SPEC rules), the interprocedural ``dimensional`` and
``concurrency`` passes, and the ``keysound`` cache-key soundness pass.
Before this registry each whole-program pass built its own project call
graph from scratch; a ``lint --all`` invocation therefore paid the
collection + fixpoint cost once *per pass*. The registry fixes the
shape:

* :class:`AnalysisPass` is the one pass interface — a name, the rule
  ids it can produce, a ``needs_callgraph`` flag, and a uniform run
  callable ``(targets, shared, disabled) -> {path: [Finding]}``;
* :class:`SharedAnalysis` owns every cross-pass structure — the parsed
  module list, the purity :class:`~repro.analysis.context.ProjectIndex`,
  the one :class:`~repro.analysis.program.Program` model (function,
  class and module tables, bound directives, and the one call
  resolver), and the concurrency :class:`ContextModel`/:class:`StateModel`
  pair (which the keysound pass reuses) — each built **once** per lint
  invocation and handed to every pass that wants it;
* :func:`run_passes` runs the enabled passes one after another and
  reports per-pass wall-clock timings for the JSON output.

:meth:`SharedAnalysis.prepare` builds every shared layer the enabled
passes need before the first pass is timed, so the timings leave the
shared build out. That includes each module's ``# repro:`` directive
table (:attr:`~repro.analysis.context.ModuleSource.directives`),
scanned once per lint: by the program build for every context module
when a whole-program pass runs, otherwise by the runner's suppression
filter for the target files alone. The dimensional fixpoint
accumulates inferred facts onto the shared ``Program``'s dimension
slots; no other pass reads those slots, so the mutation is private to
that pass by construction.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.analysis.context import ModuleSource, ProjectIndex, build_index
from repro.analysis.finding import (
    CONC_RULE_IDS,
    DIM_RULE_IDS,
    KEY_RULE_IDS,
    Finding,
    by_target,
)

#: Uniform pass entry point: findings for the target modules, keyed by
#: target path. ``disabled`` lets a pass skip expensive sub-analyses
#: whose rules the caller turned off.
PassRunner = Callable[
    [list[ModuleSource], "SharedAnalysis", frozenset[str]],
    dict[str, list[Finding]],
]


@dataclass(frozen=True)
class AnalysisPass:
    """Registry metadata + entry point for one analysis pass.

    Attributes:
        name: Stable pass name (``"base"``, ``"dimensional"``, ...),
            surfaced in the JSON ``passes``/``timings`` output and in
            CLI flags.
        rule_ids: Every rule id this pass can produce — the LINT001
            staleness check only judges suppressions of rules whose
            pass actually ran.
        needs_callgraph: Whether the pass consumes the shared
            whole-program call graph (the runner builds it once before
            dispatching any such pass).
        description: One-line summary for docs and ``--help``.
        run: The pass body.
    """

    name: str
    rule_ids: frozenset[str]
    needs_callgraph: bool
    description: str
    run: PassRunner


class SharedAnalysis:
    """Cross-pass structures, each built once per lint invocation.

    Each layer is built on first use; :meth:`prepare` builds everything
    the enabled passes will need before any pass runs.
    """

    def __init__(self, context: Iterable[ModuleSource]) -> None:
        self.context: list[ModuleSource] = list(context)
        self._index: ProjectIndex | None = None
        self._program = None
        self._conc_model = None
        self._conc_state = None

    def index(self) -> ProjectIndex:
        """The purity rules' memoization index (base pass)."""
        if self._index is None:
            self._index = build_index(self.context)
        return self._index

    def program(self):
        """The one whole-program model (shared call resolution)."""
        if self._program is None:
            from repro.analysis.program import build_program

            self._program = build_program(self.context)
        return self._program

    def concurrency_model(self):
        """The solved (ContextModel, StateModel) pair.

        Built on top of :meth:`program`; consumed by both the
        concurrency and the keysound passes.
        """
        if self._conc_model is None:
            from repro.analysis.concurrency.contexts import build_contexts
            from repro.analysis.concurrency.state import build_state

            self._conc_model = build_contexts(self.program())
            self._conc_state = build_state(self._conc_model)
        return self._conc_model, self._conc_state

    def prepare(self, passes: Iterable[AnalysisPass]) -> None:
        """Eagerly build every layer the given passes need."""
        passes = list(passes)
        self.index()
        if any(p.needs_callgraph for p in passes):
            self.program()
        if any(p.name in ("concurrency", "keysound") for p in passes):
            self.concurrency_model()


# -- pass bodies ---------------------------------------------------------


def _run_base(
    targets: list[ModuleSource],
    shared: SharedAnalysis,
    disabled: frozenset[str],
) -> dict[str, list[Finding]]:
    from repro.analysis.rules import CHECKS

    index = shared.index()
    results: dict[str, list[Finding]] = {}
    for module in targets:
        results[module.path] = [
            finding
            for rule_id, check in CHECKS.items()
            if rule_id not in disabled
            for finding in check(module, index)
        ]
    return results


def _run_dimensional(
    targets: list[ModuleSource],
    shared: SharedAnalysis,
    disabled: frozenset[str],
) -> dict[str, list[Finding]]:
    """Solve dimension summaries, then re-check the targets with them."""
    from repro.analysis.dimensional import check_module, solve_fixpoint

    program = shared.program()
    solve_fixpoint(program)
    return by_target(targets, [
        finding for module in targets if module.path in program.modules
        for finding in check_module(program, module.path)
    ])


def _run_concurrency(
    targets: list[ModuleSource],
    shared: SharedAnalysis,
    disabled: frozenset[str],
) -> dict[str, list[Finding]]:
    from repro.analysis.concurrency.rules import run_rules

    return by_target(targets, run_rules(*shared.concurrency_model(), disabled))


def _run_keysound(
    targets: list[ModuleSource],
    shared: SharedAnalysis,
    disabled: frozenset[str],
) -> dict[str, list[Finding]]:
    from repro.analysis.keysound import analyze_keysound

    return analyze_keysound(targets, *shared.concurrency_model(), disabled)


#: Every registered pass, in canonical run/report order. ``base``
#: always runs; the others are opt-in via CLI flags (``--all`` enables
#: everything).
PASSES: dict[str, AnalysisPass] = {
    "base": AnalysisPass(
        name="base",
        rule_ids=frozenset({
            "CP001", "CP002", "CP003", "NUM001", "NUM002", "NUM003",
            "SPEC001", "UNIT001",
        }),
        needs_callgraph=False,
        description="per-module cache-purity, numeric, units lints",
        run=_run_base,
    ),
    "dimensional": AnalysisPass(
        name="dimensional",
        rule_ids=DIM_RULE_IDS,
        needs_callgraph=True,
        description="whole-program physical-dimension inference",
        run=_run_dimensional,
    ),
    "concurrency": AnalysisPass(
        name="concurrency",
        rule_ids=CONC_RULE_IDS,
        needs_callgraph=True,
        description="whole-program concurrency-safety analysis",
        run=_run_concurrency,
    ),
    "keysound": AnalysisPass(
        name="keysound",
        rule_ids=KEY_RULE_IDS,
        needs_callgraph=True,
        description="whole-program cache-key soundness & determinism",
        run=_run_keysound,
    ),
}

#: Passes whose combined rule set covers everything — a blanket noqa
#: can only be proven stale when all of them ran.
ALL_PASS_NAMES: tuple[str, ...] = tuple(PASSES)


def resolve_passes(
    dimensional: bool = False,
    concurrency: bool = False,
    keysound: bool = False,
) -> tuple[AnalysisPass, ...]:
    """The enabled passes, in canonical order (``base`` always first)."""
    enabled = [PASSES["base"]]
    if dimensional:
        enabled.append(PASSES["dimensional"])
    if concurrency:
        enabled.append(PASSES["concurrency"])
    if keysound:
        enabled.append(PASSES["keysound"])
    return tuple(enabled)


def run_passes(
    passes: tuple[AnalysisPass, ...],
    targets: list[ModuleSource],
    shared: SharedAnalysis,
    disabled: frozenset[str],
) -> tuple[dict[str, list[Finding]], tuple[tuple[str, float], ...]]:
    """Run every enabled pass in order; findings merged per path + timings.

    The shared layers are built first (:meth:`SharedAnalysis.prepare`),
    so each timing is one pass body's wall-clock seconds, in pass order.
    """
    shared.prepare(passes)
    merged: dict[str, list[Finding]] = {}
    timings: list[tuple[str, float]] = []
    for one in passes:
        started = time.perf_counter()
        findings = one.run(targets, shared, disabled)
        timings.append((one.name, time.perf_counter() - started))
        for path, found in findings.items():
            merged.setdefault(path, []).extend(
                finding for finding in found
                if finding.rule not in disabled
            )
    return merged, tuple(timings)

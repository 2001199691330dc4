"""Whole-program concurrency-safety analysis (``CONC001``–``CONC004``).

Public entry point: :func:`analyze_concurrency` builds the project call
graph from the lint context (the same :func:`~repro.analysis.dimensional
.callgraph.build_project` pre-pass the dimensional rules use), solves
each function's *execution contexts* (main, event-loop, executor-thread,
fork-worker) to a fixpoint, collects the shared mutable state and lock
structure, and reports:

* **CONC001** — unsynchronized mutation of state reachable from two or
  more thread contexts;
* **CONC002** — blocking calls transitively reachable inside ``async
  def`` without an executor hop;
* **CONC003** — fork-unsafe inherited state (locks, files, sockets,
  executors) reachable from fork-worker entry points;
* **CONC004** — mutable objects captured into spawned task closures and
  mutated on both sides of the submission;
* **CONCNOTE** — malformed or unverifiable ``# repro:
  guarded-by[lockname]`` annotations.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.concurrency.contexts import (
    FORK,
    LOOP,
    MAIN,
    THREAD,
    ContextModel,
    build_contexts,
)
from repro.analysis.concurrency.rules import run_rules
from repro.analysis.concurrency.state import (
    StateModel,
    build_state,
    guard_table,
)
from repro.analysis.context import ModuleSource
from repro.analysis.dimensional.callgraph import build_project
from repro.analysis.finding import Finding

__all__ = [
    "FORK",
    "LOOP",
    "MAIN",
    "THREAD",
    "ContextModel",
    "StateModel",
    "analyze_concurrency",
    "build_concurrency_model",
    "build_contexts",
    "build_state",
    "guard_table",
]


def build_concurrency_model(
    context: Iterable[ModuleSource],
) -> tuple[ContextModel, StateModel]:
    """Solve contexts and state facts for a set of parsed modules.

    Exposed for the meta-suite, which asserts on the inferred contexts
    directly in addition to the emitted findings.
    """
    model = build_contexts(build_project(list(context)))
    return model, build_state(model)


def analyze_concurrency(
    targets: Iterable[ModuleSource],
    context: Iterable[ModuleSource],
    disable: frozenset[str] = frozenset(),
    model: ContextModel | None = None,
    state: StateModel | None = None,
) -> dict[str, list[Finding]]:
    """Run the concurrency pass and report findings for ``targets``.

    ``context`` is every parsed module the call graph may cross into
    (typically the whole installed package plus the explicit targets);
    ``targets`` is the subset whose findings the caller wants. Pass a
    prebuilt ``model``/``state`` pair (the registry's shared solve) to
    skip the per-pass construction. Returns a mapping of target path ->
    sorted findings.
    """
    target_list = list(targets)
    if model is None or state is None:
        model, state = build_concurrency_model(context)
    findings = run_rules(model, state, disable)
    results: dict[str, list[Finding]] = {
        source.path: [] for source in target_list
    }
    for finding in findings:
        if finding.path in results:
            results[finding.path].append(finding)
    return {path: sorted(found) for path, found in results.items()}

"""Whole-program concurrency-safety analysis (``CONC001``–``CONC004``).

The pass takes the shared program model
(:func:`~repro.analysis.program.build_program`, the pre-pass every
whole-program pass uses), solves each function's *execution contexts*
(main, event-loop, executor-thread, fork-worker) to a fixpoint
(:func:`build_contexts`), collects the shared mutable state and lock
structure (:func:`build_state`), and reports
(:func:`~repro.analysis.concurrency.rules.run_rules`):

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
from repro.analysis.concurrency.state import (
    StateModel,
    build_state,
    guard_table,
)
from repro.analysis.context import ModuleSource
from repro.analysis.program import build_program

__all__ = [
    "FORK",
    "LOOP",
    "MAIN",
    "THREAD",
    "ContextModel",
    "StateModel",
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
    model = build_contexts(build_program(list(context)))
    return model, build_state(model)

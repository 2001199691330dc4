"""Whole-program cache-key soundness & determinism analysis (KEY/DET).

The reproduction answers through four caching layers (fastpath memos,
the persistent EvalCache, the batch compile memo, and the serve
process-wide cache); a single memoized function that reads state
*not* captured in its key silently serves stale physics — the worst
failure mode for a model whose contract is that the same config always
yields the same report. This pass makes the guarantee
whole-program:

* **KEY001** — the computation behind a memoization site transitively
  reads mutable state that is absent from the key derivation;
* **KEY002** — the key hashes values the computation never reads
  (over-keying that silently splits identical results across entries);
* **DET001** — a nondeterministic source (time, rng, env, file reads,
  unsorted-set iteration) is reachable from a cached computation or a
  key-derivation function;
* **DET002** — a cached computation transitively mutates state outside
  its own frame (generalizing CP003 across calls);
* **KEYNOTE** — malformed or unattached ``# repro: keyed-by[...]`` /
  ``# repro: key-exempt[name: reason]`` declarations.

The two declarations belong to the shared directive grammar
(:mod:`repro.analysis.directives`), and the program model's one binder
attaches each to the statement whose lines hold it. ``keyed-by[name,
other]`` on a memoization site's statement asserts that the named values *are* part of the cache
key even though the analysis cannot see the flow (e.g. the key is a
content hash of a record that embeds them); KEY001/KEY002 treat them as
covered. ``key-exempt[name: reason]`` on a site *or* a module-global
definition waives KEY/DET findings for that name. The reason is
mandatory: an exemption without a written justification is exactly the
silent staleness the pass exists to prevent.

The pass reuses the concurrency substrate — the shared program model
(:mod:`repro.analysis.program`) with the call edges the solved
:class:`~repro.analysis.concurrency.contexts.ContextModel` added, and the
:class:`~repro.analysis.concurrency.state.StateModel` access table — so
a ``lint --all`` run builds each structure exactly once.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from repro.analysis.concurrency.contexts import ContextModel
from repro.analysis.concurrency.state import StateKey, StateModel
from repro.analysis.context import ModuleSource
from repro.analysis.directives import Directives
from repro.analysis.finding import Finding, by_target
from repro.analysis.keysound.effects import (
    EffectModel,
    is_neutral,
    mutable_state_keys,
    solve_effects,
)
from repro.analysis.keysound.rules import run_rules
from repro.analysis.keysound.sites import MemoSite, discover_sites
from repro.analysis.program import Program, assigned_names

__all__ = [
    "EffectModel",
    "KeyComments",
    "MemoSite",
    "analyze_keysound",
    "build_keysound_model",
    "discover_sites",
    "is_neutral",
    "key_table",
    "solve_effects",
]


@dataclass  # repro: noqa[SPEC001] -- mutable parse accumulator
class KeyComments:
    """Parsed key declarations of one module, by source line."""

    #: line -> names asserted to be covered by the key.
    keyed_by: dict[int, set[str]] = field(default_factory=dict)
    #: line -> name -> written reason for the exemption.
    exempt: dict[int, dict[str, str]] = field(default_factory=dict)
    #: (line, message) pairs for malformed declarations (KEYNOTE).
    errors: list[tuple[int, str]] = field(default_factory=list)


def key_table(directives: Directives) -> KeyComments:
    """Parse a module's ``keyed-by`` / ``key-exempt`` directives."""
    out = KeyComments(errors=directives.notes("keyed-by", "key-exempt"))
    for directive in directives.of("keyed-by", "key-exempt"):
        line = directive.line
        if directive.form == "keyed-by":
            good: set[str] = set()
            names = [part.strip() for part in directive.body.split(",")]
            for name in names:
                if name and name.replace("_", "a").isidentifier():
                    good.add(name)
                else:
                    out.errors.append((
                        line,
                        f"keyed-by name {name!r} is not an identifier",
                    ))
            if good:
                out.keyed_by.setdefault(line, set()).update(good)
            continue
        name, sep, reason = directive.body.partition(":")
        name = name.strip()
        reason = reason.strip()
        if not name or not name.replace("_", "a").isidentifier():
            out.errors.append((
                line,
                f"key-exempt name {name!r} is not an identifier",
            ))
        elif not sep or not reason:
            out.errors.append((
                line,
                f"key-exempt[{name}] carries no reason: expected "
                "'# repro: key-exempt[name: reason]' — an exemption "
                "must say why staleness is impossible",
            ))
        else:
            out.exempt.setdefault(line, {})[name] = reason
    return out


def _holder(site: MemoSite) -> ast.stmt | None:
    """The statement a site's declarations attach to: an ``lru`` def
    itself, otherwise the innermost statement holding the call."""
    if site.kind == "lru":
        return site.node.node
    fn = site.node.parent if site.node.is_lambda else site.node
    best: ast.stmt | None = None
    for item in fn.own:
        if isinstance(item, ast.stmt) and \
                item.lineno <= site.line <= item.end_lineno and (
                    best is None
                    or item.end_lineno - item.lineno
                    < best.end_lineno - best.lineno
                ):
            best = item
    return best


def _bind_declarations(
    program: Program, sites: list[MemoSite],
) -> tuple[dict[StateKey, str], list[Finding]]:
    """Apply the bound declarations to sites and global definitions.

    Returns the project-wide definition-site exemptions plus the
    KEYNOTE findings for malformed or unattached declarations.
    """
    global_exempt: dict[StateKey, str] = {}
    notes: list[Finding] = []
    by_path: dict[str, list[MemoSite]] = {}
    for site in sites:
        by_path.setdefault(site.path, []).append(site)

    def note(module, line: int, message: str) -> None:
        notes.append(Finding(
            path=module.path, line=line, col=0, rule="KEYNOTE",
            message=message,
        ))

    for module in program.modules.values():
        comments = key_table(module.directives)
        for line, message in comments.errors:
            note(module, line, message)
        if not comments.keyed_by and not comments.exempt:
            continue
        claimed: set[int] = set()
        # A memo site claims the declarations on its statement.
        for site in by_path.get(module.path, []):
            for directive in module.held(_holder(site), "keyed-by",
                                         "key-exempt"):
                site.keyed_by |= comments.keyed_by.get(directive.line, set())
                site.exempt.update(comments.exempt.get(directive.line, {}))
                claimed.add(directive.line)
        # Module-global definitions claim key-exempt project-wide.
        for stmt in module.tree.body:
            names = assigned_names(stmt)
            if not names:
                continue
            for directive in module.held(stmt, "keyed-by", "key-exempt"):
                line = directive.line
                for name, reason in comments.exempt.get(line, {}).items():
                    if name in names:
                        global_exempt[
                            ("global", module.qualname, name)
                        ] = reason
                        claimed.add(line)
                if line in comments.keyed_by and line not in claimed:
                    note(module, line,
                         "keyed-by attaches to a memoization site, not a "
                         "definition; use key-exempt[name: reason] to "
                         "exempt a global")
                    claimed.add(line)
        for line in sorted(set(comments.keyed_by) | set(comments.exempt)):
            if line not in claimed:
                note(module, line,
                     "key declaration is not attached to a memoization "
                     "site or a module-global definition")
    return global_exempt, notes


def build_keysound_model(
    model: ContextModel, state: StateModel,
) -> tuple[list[MemoSite], EffectModel, dict[StateKey, str],
           list[Finding]]:
    """Solve sites/effects/declarations for a prepared context model.

    Exposed for the meta-suite, which asserts on the discovered sites
    and inferred effects directly in addition to the emitted findings.
    """
    sites = discover_sites(model.program)
    effects = solve_effects(model.program, state)
    global_exempt, notes = _bind_declarations(model.program, sites)
    return sites, effects, global_exempt, notes


def analyze_keysound(
    targets: Iterable[ModuleSource],
    model: ContextModel,
    state: StateModel,
    disabled: frozenset[str] = frozenset(),
) -> dict[str, list[Finding]]:
    """Run the keysound pass and report findings for ``targets``.

    ``model``/``state`` are the shared concurrency structures (built
    once per lint invocation by the registry); the declarations come
    from each project module's directive table. Returns a mapping of
    target path -> sorted findings.
    """
    sites, effects, global_exempt, notes = build_keysound_model(
        model, state,
    )
    return by_target(targets, run_rules(
        sites, effects, state, model.program, mutable_state_keys(state),
        global_exempt, notes, disabled,
    ))

"""The CONC rule implementations.

Each rule combines the execution contexts from :mod:`.contexts` with the
shared-state facts from :mod:`.state` and emits findings whose messages
carry the full inference chain — which contexts, via which spawn or call
edges, touch which state — in the same spirit as the DIM001–DIM004
messages.
"""

from __future__ import annotations

import ast
from typing import Callable

from repro.analysis.concurrency.contexts import (
    FORK,
    LOOP,
    MAIN,
    THREAD,
    ContextModel,
    outside_lambdas,
    trim_chain,
)
from repro.analysis.concurrency.state import (
    BLOCKING_PROJECT,
    GIL_GUARD,
    Access,
    StateKey,
    StateModel,
    render_key,
)
from repro.analysis.context import MUTATING_METHODS
from repro.analysis.finding import Finding
from repro.analysis.program import Function

#: BFS depth cap for the reachability rules.
_MAX_DEPTH = 16

#: Display order for contexts: most concurrent first.
_CTX_ORDER = (THREAD, LOOP, FORK, MAIN)


def _ctx_list(contexts: frozenset[str] | set[str]) -> str:
    ordered = [c for c in _CTX_ORDER if c in contexts]
    return "{" + ", ".join(ordered) + "}"


def _pick_context(model: ContextModel, node: Function) -> str | None:
    for context in _CTX_ORDER:
        if context in model.contexts(node):
            return context
    return None


def check_conc001(model: ContextModel, state: StateModel,
                  disable: frozenset[str]) -> list[Finding]:
    """Unsynchronized mutation of state shared across thread contexts."""
    if "CONC001" in disable:
        return []
    by_key: dict[StateKey, list[Access]] = {}
    for access in state.accesses:
        by_key.setdefault(access.key, []).append(access)
    findings: list[Finding] = []
    for key, accesses in sorted(by_key.items()):
        if key[0] == "field" and key[1] not in state.shared_classes:
            continue
        live = [a for a in accesses if not a.in_init]
        writes = [a for a in live if a.write]
        if not any(not a.atomic for a in writes):
            continue
        contexts: set[str] = set()
        example: dict[str, Access] = {}
        for access in live:
            for context in model.contexts(access.node):
                if context == FORK:
                    continue  # separate address space: no data race
                contexts.add(context)
                example.setdefault(context, access)
        if THREAD not in contexts and not ({MAIN, LOOP} <= contexts):
            continue  # never reachable from two OS threads at once
        declared = state.guard_decls.get(key)
        reported = False
        for access in writes:
            if access.atomic:
                continue
            if declared is not None:
                if declared == GIL_GUARD or not access.held \
                        or declared in access.held:
                    # No lock held is trusted: guarding may happen at
                    # the call site (the annotation says which lock).
                    continue
                message = (
                    f"shared state '{render_key(key)}' is declared "
                    f"guarded-by[{declared}] but this {access.op} at "
                    f"line {access.line} runs under lock "
                    f"'{access.held[-1]}' instead"
                )
                findings.append(Finding(
                    path=access.node.module.path, line=access.line,
                    col=0, rule="CONC001", message=message,
                ))
                continue
            if access.held:
                continue  # lexically under a lock
            if reported:
                continue  # one finding per state key
            reported = True
            context = _pick_context(model, access.node) or MAIN
            chain = model.reason(access.node, context)
            other = None
            for other_ctx in _CTX_ORDER:
                if other_ctx in contexts and other_ctx != context:
                    other = (other_ctx, example[other_ctx])
                    break
            shared_note = ""
            if key[0] == "field":
                why_shared = state.shared_why.get(key[1])
                if why_shared:
                    shared_note = f"; instance is shared: {why_shared}"
            other_note = ""
            if other is not None:
                other_ctx, other_access = other
                other_chain = model.reason(other_access.node, other_ctx)
                other_note = (
                    f" while {other_access.node.short} also "
                    f"{'writes' if other_access.write else 'reads'} it "
                    f"in {other_ctx} ({trim_chain(other_chain)})"
                )
            message = (
                f"unsynchronized {access.op} of shared state "
                f"'{render_key(key)}' reachable from contexts "
                f"{_ctx_list(contexts)}: {access.node.short} runs in "
                f"{context} ({trim_chain(chain)}){other_note}{shared_note}; "
                f"guard it with a lock or annotate the definition with "
                f"'# repro: guarded-by[lockname]'"
            )
            findings.append(Finding(
                path=access.node.module.path, line=access.line, col=0,
                rule="CONC001", message=message,
            ))
    return findings


def _reach(entry: Function, follow: Callable[[Function], bool]):
    """(function, call path) pairs reachable from ``entry`` breadth
    first, entering only the callees and lambdas ``follow`` accepts."""
    queue: list[tuple[Function, tuple[str, ...]]] = [(entry, (entry.short,))]
    visited: set[str] = set()
    while queue:
        node, path = queue.pop(0)
        if node.qualname in visited or len(path) > _MAX_DEPTH:
            continue
        visited.add(node.qualname)
        yield node, path
        for edge in node.calls:
            if edge.callee.qualname not in visited and follow(edge.callee):
                queue.append((edge.callee, path + (edge.callee.short,)))
        for lam in node.lambdas:
            if follow(lam):
                queue.append((lam, path + ("<lambda>",)))


def _on_the_loop(fn: Function) -> bool:
    """Whether a callee runs on the caller's event loop as a plain call
    (blocking project functions are reported at their call edge)."""
    return not fn.is_async and fn.qualname not in BLOCKING_PROJECT and \
        not (fn.is_lambda and fn.is_spawn_target)


def check_conc002(model: ContextModel, state: StateModel,
                  disable: frozenset[str]) -> list[Finding]:
    """Blocking calls reachable inside async defs without executor hops."""
    if "CONC002" in disable:
        return []
    # site (path, line, what) -> (chain text, roots that reach it)
    sites: dict[tuple[str, int, str], tuple[str, list[str]]] = {}

    def note(root: Function, key: tuple[str, int, str], chain: str) -> None:
        entry = sites.get(key)
        if entry is None:
            sites[key] = (chain, [root.short])
        elif root.short not in entry[1]:
            entry[1].append(root.short)

    for root in model.program.functions.values():
        if not root.is_async:
            continue
        for node, path in _reach(root, _on_the_loop):
            for blocking in state.blocking.get(node.qualname, []):
                note(root, (node.module.path, blocking.line, blocking.what),
                     " -> ".join(path))
            for edge in node.calls:
                callee = edge.callee
                if not callee.is_async and callee.qualname in BLOCKING_PROJECT:
                    note(root, (node.module.path, edge.line,
                                BLOCKING_PROJECT[callee.qualname]),
                         " -> ".join(path + (callee.short,)))
    findings: list[Finding] = []
    for (path, line, what), (chain, roots) in sorted(sites.items()):
        extra = f" (+{len(roots) - 1} more async entry points)" \
            if len(roots) > 1 else ""
        message = (
            f"blocking {what} executes on the event loop: reachable "
            f"from async {roots[0]}{extra} via {trim_chain(chain)} with no "
            f"executor hop; wrap it in loop.run_in_executor / "
            f"asyncio.to_thread or use an async equivalent"
        )
        findings.append(Finding(
            path=path, line=line, col=0, rule="CONC002", message=message,
        ))
    return findings


def check_conc003(model: ContextModel, state: StateModel,
                  disable: frozenset[str]) -> list[Finding]:
    """Fork-unsafe inherited state reachable from fork-worker entries."""
    if "CONC003" in disable:
        return []
    atfork = {id(node) for node in model.atfork_child}
    accesses_by_node: dict[str, list[Access]] = {}
    for access in state.accesses:
        accesses_by_node.setdefault(
            access.node.qualname, [],
        ).append(access)
    findings: list[Finding] = []
    seen_sites: set[tuple[str, int, str]] = set()
    for entry in model.fork_entries:
        if id(entry) in atfork:
            continue  # reinit callbacks touch resources on purpose
        for node, path in _reach(entry, lambda fn: True):
            for access in accesses_by_node.get(node.qualname, []):
                resource = state.resources.get(access.key)
                if resource is None:
                    continue
                if access.key in state.reinit_keys:
                    continue  # rebuilt in an after-fork child callback
                if access.key[2] in state.reinit_attrs:
                    continue
                site = (node.module.path, access.line,
                        render_key(access.key))
                if site in seen_sites:
                    continue
                seen_sites.add(site)
                chain = " -> ".join(path)
                message = (
                    f"fork worker entry {entry.short} reaches "
                    f"{resource} '{render_key(access.key)}' via "
                    f"{trim_chain(chain)}: locks, handles, and executors "
                    f"inherited over fork() can be left locked or "
                    f"duplicated in the child; reinitialize it in "
                    f"os.register_at_fork(after_in_child=...) or keep "
                    f"it out of worker code"
                )
                findings.append(Finding(
                    path=node.module.path, line=access.line, col=0,
                    rule="CONC003", message=message,
                ))
    return findings


def _local_mutations(items: list[ast.AST]) -> dict[str, int]:
    """Local names mutated in place (name -> first line)."""
    mutated: dict[str, int] = {}

    def note(name: str, line: int) -> None:
        mutated.setdefault(name, line)

    for item in items:
        if isinstance(item, ast.AugAssign) and isinstance(
            item.target, ast.Name
        ):
            note(item.target.id, item.lineno)
        elif isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Subscript) and isinstance(
                    target.value, ast.Name
                ):
                    note(target.value.id, item.lineno)
        elif isinstance(item, ast.Call) and isinstance(
            item.func, ast.Attribute
        ) and item.func.attr in MUTATING_METHODS and isinstance(
            item.func.value, ast.Name
        ):
            note(item.func.value.id, item.lineno)
    return mutated


def check_conc004(model: ContextModel, state: StateModel,
                  disable: frozenset[str]) -> list[Finding]:
    """Mutable objects captured into spawned closures and mutated on
    both sides of the submission."""
    if "CONC004" in disable:
        return []
    findings: list[Finding] = []
    for node in model.program.functions.values():
        # Mutations in the enclosing function, outside any lambda body.
        outside_mut = _local_mutations(outside_lambdas(node))
        if not outside_mut:
            continue
        for spawn in node.spawns:
            target = spawn.target
            if not target.is_lambda or target.parent is not node:
                continue  # only closures capture this function's locals
            inside = target.own
            inside_mut = _local_mutations(inside)
            captured_reads = {
                item.id
                for item in inside
                if isinstance(item, ast.Name)
                and isinstance(item.ctx, ast.Load)
            }
            for name in sorted(set(inside_mut) & set(outside_mut)):
                if name in target.param_names or name not in captured_reads:
                    continue
                message = (
                    f"'{name}' is captured into a closure {spawn.how} "
                    f"at line {spawn.line} and mutated both inside the "
                    f"task (line {inside_mut[name]}) and in "
                    f"{node.short} (line {outside_mut[name]}): the two "
                    f"sides run in different contexts "
                    f"({_ctx_list(model.contexts(node))} vs "
                    f"{spawn.context}); pass a copy into the task or "
                    f"collect results instead of sharing the object"
                )
                findings.append(Finding(
                    path=node.module.path, line=spawn.line, col=0,
                    rule="CONC004", message=message,
                ))
    return findings


def check_concnote(model: ContextModel, state: StateModel,
                   disable: frozenset[str]) -> list[Finding]:
    """Malformed or unverifiable guarded-by annotations."""
    if "CONCNOTE" in disable:
        return []
    return list(state.guard_issues)


def run_rules(model: ContextModel, state: StateModel,
              disable: frozenset[str]) -> list[Finding]:
    """Run every CONC rule and return the merged finding list."""
    findings: list[Finding] = []
    findings.extend(check_conc001(model, state, disable))
    findings.extend(check_conc002(model, state, disable))
    findings.extend(check_conc003(model, state, disable))
    findings.extend(check_conc004(model, state, disable))
    findings.extend(check_concnote(model, state, disable))
    return findings

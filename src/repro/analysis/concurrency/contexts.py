"""Execution-context inference for the concurrency analysis.

Every function in the project runs in one or more *execution contexts*:

* ``main`` — ordinary synchronous code (module import, the CLI, tests);
* ``event-loop`` — the body of an ``async def`` and every synchronous
  function it calls without an executor hop;
* ``executor-thread`` — targets of ``ThreadPoolExecutor.submit`` /
  ``loop.run_in_executor`` / ``threading.Thread`` and everything they
  call (an executor is *always* multi-threaded, so this context alone
  implies concurrent execution);
* ``fork-worker`` — targets of ``ProcessPoolExecutor.submit`` /
  ``multiprocessing.Process`` and ``os.register_at_fork``
  ``after_in_child`` callbacks (a separate address space: it does not
  race with the parent, but it *inherits* the parent's locks and file
  handles, which is what ``CONC003`` checks).

Contexts propagate along the call edges the one resolver of the shared
program model (:mod:`repro.analysis.program`) finds, to a fixpoint of
the shared worklist solver (:mod:`repro.analysis.fixpoint`), including
through *escaping callable parameters*: when ``_admitted(work)`` hands
``work`` to ``run_in_executor``, every callable an outside caller binds
to ``work`` is marked ``executor-thread`` — that is how the serve tier's
evaluation lambdas are tracked onto the executor. A call of a project
decorator's first parameter inside the decorator reaches every function
the decorator wraps.

Each context a function acquires carries a human-readable *why* chain
(``"submitted to a thread executor at app.py:357 by _admitted"``) that
the CONC rules embed in their findings, mirroring the DIM inference
chains.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis import fixpoint
from repro.analysis.program import (
    CallableArg,
    CallEdge,
    Function,
    Param,
    Program,
    SpawnEdge,
    T_PROCESS_EXECUTOR,
    dotted_chain,
    runs,
)

#: Context names (values appear verbatim in findings).
MAIN = "main"
LOOP = "event-loop"
THREAD = "executor-thread"
FORK = "fork-worker"


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class ContextModel:
    """Everything the CONC rules consume about who runs where."""

    program: Program
    ctx: dict[str, set[str]] = field(default_factory=dict)
    why: dict[tuple[str, str], str] = field(default_factory=dict)
    #: (function qual, param name) -> contexts the param escapes into.
    escapes: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    #: entry functions of fork workers (spawn targets + at-fork callbacks).
    fork_entries: list[Function] = field(default_factory=list)
    #: functions registered as ``os.register_at_fork(after_in_child=...)``.
    atfork_child: list[Function] = field(default_factory=list)

    def contexts(self, fn: Function) -> frozenset[str]:
        return frozenset(self.ctx.get(fn.qualname, ()))

    def reason(self, fn: Function, context: str) -> str:
        return self.why.get(
            (fn.qualname, context), f"runs in {context}",
        )


#: Longest chain fragment kept in a why or embedded in a message.
_CHAIN_LIMIT = 200


def trim_chain(text: str) -> str:
    """Cap an inference chain at a readable length."""
    if len(text) > _CHAIN_LIMIT:
        return text[:_CHAIN_LIMIT - 3] + "..."
    return text


def outside_lambdas(fn: Function) -> list[ast.AST]:
    """A def's own nodes minus those of the lambdas inside it."""
    if not fn.lambdas:
        return fn.own
    inside = {id(item) for lam in fn.lambdas for item in lam.own}
    return [item for item in fn.own if id(item) not in inside]


class _Scanner:
    """Extract call/spawn/callable-arg edges from one function's body."""

    def __init__(self, model: ContextModel, fn: Function) -> None:
        self.model = model
        self.program = model.program
        self.fn = fn

    def _callables(self, expr: ast.expr) -> tuple[list[Function], str | None]:
        """Functions an expression may run, plus this function's
        parameter name when the expression *is* one."""
        targets = self.program.resolve(self.fn, self.fn.module, expr)
        param = next((
            target.name for target in targets
            if isinstance(target, Param) and target.owner is self.fn
        ), None)
        return runs(targets), param

    def _spawn_of(self, call: ast.Call) -> list[tuple[ast.expr, str, str]]:
        """(target expr, context, how) triples if ``call`` spawns work."""
        func = call.func
        out: list[tuple[ast.expr, str, str]] = []

        def kwarg(name: str) -> ast.expr | None:
            for kw in call.keywords:
                if kw.arg == name:
                    return kw.value
            return None

        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in ("submit", "map") and call.args:
                receiver = self.program.instance_type(
                    self.fn, self.fn.module, func.value,
                )
                if receiver == T_PROCESS_EXECUTOR:
                    out.append((call.args[0], FORK,
                                "submitted to a process pool"))
                else:
                    out.append((call.args[0], THREAD,
                                "submitted to a thread executor"))
                return out
            if attr == "run_in_executor" and len(call.args) >= 2:
                out.append((call.args[1], THREAD,
                            "handed to run_in_executor"))
                return out
        chain = dotted_chain(func, self.fn.module) or ""
        terminal = chain.rsplit(".", 1)[-1]
        target = kwarg("target") or (
            call.args[1] if len(call.args) >= 2 else None
        )
        if chain == "asyncio.to_thread" and call.args:
            out.append((call.args[0], THREAD, "handed to asyncio.to_thread"))
        elif terminal == "Thread" and chain.startswith(("threading.", "Thread")):
            if target is not None:
                out.append((target, THREAD, "made a threading.Thread target"))
        elif terminal == "Process" and chain.startswith(
            ("multiprocessing.", "Process")
        ):
            if target is not None:
                out.append((target, FORK,
                            "made a multiprocessing.Process target"))
        elif chain == "os.register_at_fork":
            child = kwarg("after_in_child")
            if child is not None:
                out.append((child, FORK,
                            "registered as an after-fork child callback"))
        return out

    def scan(self) -> None:
        fn = self.fn
        own = fn.own if fn.is_lambda else outside_lambdas(fn)
        for item in own:
            if not isinstance(item, ast.Call):
                continue
            spawned_args: set[int] = set()
            for target_expr, context, how in self._spawn_of(item):
                spawned_args.add(id(target_expr))
                candidates, caller_param = self._callables(target_expr)
                for target in candidates:
                    target.is_spawn_target = True
                    fn.spawns.append(SpawnEdge(
                        target=target, context=context,
                        line=item.lineno, how=how,
                    ))
                    if context == FORK:
                        if how.startswith("registered"):
                            self.model.atfork_child.append(target)
                        self.model.fork_entries.append(target)
                if caller_param is not None:
                    self.model.escapes.setdefault(
                        (fn.qualname, caller_param), set(),
                    ).add(context)
            callees = runs(self.program.resolve(fn, fn.module, item.func))
            for callee in callees:
                callee.in_degree += 1
                fn.calls.append(CallEdge(callee=callee, line=item.lineno))
            # Callable arguments bound to callee params (higher order).
            for callee in callees:
                params = [slot.name for slot in callee.bindable]
                for i, arg in enumerate(item.args):
                    if id(arg) in spawned_args or i >= len(params):
                        continue
                    self._note_callable_arg(callee, params[i], arg, item)
                for kw in item.keywords:
                    if kw.arg is None or id(kw.value) in spawned_args:
                        continue
                    if kw.arg in params:
                        self._note_callable_arg(
                            callee, kw.arg, kw.value, item,
                        )

    def _note_callable_arg(self, callee: Function, param: str,
                           arg: ast.expr, call: ast.Call) -> None:
        if not isinstance(arg, (ast.Lambda, ast.Name, ast.Attribute,
                                ast.Call)):
            return
        candidates, caller_param = self._callables(arg)
        if not candidates and caller_param is None:
            return
        self.fn.callable_args.append(CallableArg(
            callee=callee, param=param,
            candidates=tuple(candidates),
            caller_param=caller_param, line=call.lineno,
        ))


def _bind_decorators(model: ContextModel) -> None:
    """Register each decorated function as a callable bound to its
    project decorator's first parameter, so escape facts propagate.

    ``@memoized def solve(...)`` binds ``solve`` to the decorator's
    first parameter; the wrapper's calls of that parameter already
    resolve to ``solve`` (:meth:`repro.analysis.program.Program.resolve`).
    """
    program = model.program
    for dec_qual, bound in program.decorated.items():
        dec = program.functions[dec_qual]
        for fn in bound:
            dec.callable_args.append(CallableArg(
                callee=dec, param=dec.param_names[0],
                candidates=(fn,), caller_param=None,
                line=fn.node.lineno,
            ))


def _module_level_calls(model: ContextModel):
    """(module, call) for every call in module-level code."""
    for info in model.program.by_qual.values():
        for item in info.tree.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for sub in ast.walk(item):
                if isinstance(sub, ast.Call):
                    yield info, sub


def _scan_module_atfork(model: ContextModel) -> None:
    """Module-level ``os.register_at_fork`` registrations.

    Reinit callbacks are conventionally registered at import time
    (often inside a ``hasattr`` guard); the function scanner only sees
    calls inside function bodies, so collect these from module bodies.
    """
    for info, sub in _module_level_calls(model):
        if dotted_chain(sub.func, info) != "os.register_at_fork":
            continue
        for kw in sub.keywords:
            if kw.arg != "after_in_child" or \
                    not isinstance(kw.value, ast.Name):
                continue
            target = model.program.functions.get(
                f"{info.qualname}.{kw.value.id}"
            )
            if target is None:
                continue
            target.is_spawn_target = True
            model.atfork_child.append(target)
            model.fork_entries.append(target)
            _add_ctx(
                model, target, FORK,
                "registered as an after-fork child callback "
                f"at import time in {info.qualname}",
            )


def _seed(model: ContextModel) -> None:
    """Initial contexts before propagation."""
    # Module-level calls run at import time: their callees are main.
    for info, sub in _module_level_calls(model):
        if not isinstance(sub.func, ast.Name):
            continue
        local = model.program.functions.get(f"{info.qualname}.{sub.func.id}")
        if local is not None:
            local.in_degree += 1
            _add_ctx(model, local, MAIN,
                     f"called at import time in {info.qualname}")
    for fn in model.program.functions.values():
        if fn.is_async:
            _add_ctx(model, fn, LOOP,
                     "async def: its body runs on the event loop")
        elif fn.in_degree == 0 and not fn.is_spawn_target:
            _add_ctx(model, fn, MAIN,
                     "assumed program entry (no in-project caller)")


def _add_ctx(model: ContextModel, fn: Function, context: str,
             why: str) -> list[Function]:
    """Add ``context`` to ``fn``; returns the functions to revisit if it
    grew (the function itself and the lambdas it encloses)."""
    bucket = model.ctx.setdefault(fn.qualname, set())
    if context in bucket:
        return []
    bucket.add(context)
    model.why.setdefault((fn.qualname, context), trim_chain(why))
    return [fn, *fn.lambdas]


def solve_contexts(model: ContextModel) -> None:
    """Propagate contexts along call/spawn/escape edges to a fixpoint.

    A function is revisited when its own context set grew, when the
    function enclosing it (for a lambda) grew, or when an escape slot
    one of its callable arguments is bound to grew.
    """
    bodies = model.program.bodies
    holders: dict[tuple[str, str], list[Function]] = {}
    for fn in bodies:
        for carg in fn.callable_args:
            holders.setdefault((carg.callee.qualname, carg.param), []) \
                .append(fn)

    def step(fn: Function) -> list[Function]:
        dirty: list[Function] = []
        # Lambdas run where their enclosing function runs, unless
        # they only exist to be spawned elsewhere.
        if fn.is_lambda and not fn.is_spawn_target:
            for context in model.contexts(fn.parent):
                dirty += _add_ctx(
                    model, fn, context,
                    f"closure evaluated inline by {fn.parent.short}"
                    f" ({model.reason(fn.parent, context)})",
                )
        contexts = model.contexts(fn)
        # Escape facts are structural: propagate them regardless of
        # whether anything runs this function yet.
        for carg in fn.callable_args:
            escaped = model.escapes.get(
                (carg.callee.qualname, carg.param), set(),
            )
            for context in escaped:
                why = (
                    f"bound to parameter '{carg.param}' of "
                    f"{carg.callee.short} at "
                    f"{fn.module.path}:{carg.line}, which "
                    f"{model.why.get((carg.callee.qualname + ':escape', carg.param), 'hands it to an executor')}"
                )
                for cand in carg.candidates:
                    cand.is_spawn_target = True
                    dirty += _add_ctx(model, cand, context, why)
                if carg.caller_param is not None:
                    slot = (fn.qualname, carg.caller_param)
                    bucket = model.escapes.setdefault(slot, set())
                    if context not in bucket:
                        bucket.add(context)
                        dirty += holders.get(slot, [])
        if not contexts:
            return dirty
        for spawn in fn.spawns:
            dirty += _add_ctx(
                model, spawn.target, spawn.context,
                f"{spawn.how} at {fn.module.path}:{spawn.line} "
                f"by {fn.short}",
            )
        for edge in fn.calls:
            if edge.callee.is_async:
                continue  # seeded with event-loop already
            for context in contexts:
                dirty += _add_ctx(
                    model, edge.callee, context,
                    f"called from {fn.short} "
                    f"({model.reason(fn, context)})",
                )
        return dirty

    fixpoint.solve(bodies, step)


def build_contexts(program: Program) -> ContextModel:
    """Collect edges and solve execution contexts for a program."""
    model = ContextModel(program=program)
    for fn in program.functions.values():
        for lam in fn.lambdas:
            _Scanner(model, lam).scan()
        _Scanner(model, fn).scan()
    # Escaping spawn params get a readable description for why-chains.
    for (qual, param), contexts in model.escapes.items():
        for context in contexts:
            model.why.setdefault(
                (qual + ":escape", param),
                f"hands '{param}' to a {context} spawn",
            )
    _bind_decorators(model)
    _scan_module_atfork(model)
    _seed(model)
    solve_contexts(model)
    # fork entries may have been discovered more than once
    model.fork_entries = list(dict.fromkeys(model.fork_entries))
    return model

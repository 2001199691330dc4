"""Shared-state and lock modeling for the concurrency analysis.

This module answers, for every function record of the shared program
model (:class:`~repro.analysis.program.Function`), four questions the
CONC rules combine with the execution contexts:

* which *shared state keys* (module globals and instance fields of
  escaping classes) the node reads and writes, and whether each write is
  a GIL-atomic rebind or a compound operation (``+=``, subscript store,
  mutating container method);
* which locks are *held* at each access — lexically under ``with
  lock:`` or between ``lock.acquire()`` / ``lock.release()``
  statements, in acquisition order — and which state is covered by a
  trusted ``# repro: guarded-by[lockname]`` annotation (see
  :mod:`repro.analysis.directives` for the grammar; the program model's
  directive binder attaches each one to its statement);
* which state keys hold *fork-unsafe resources* (locks, open files,
  sockets, executors) and which of those are reinitialized in an
  ``os.register_at_fork(after_in_child=...)`` callback;
* which blocking primitives (``time.sleep``, sync file I/O,
  ``subprocess``, ``Lock.acquire``, the scalar evaluation pipeline) the
  node calls directly, for the CONC002 reachability walk.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis import fixpoint
from repro.analysis.concurrency.contexts import ContextModel
from repro.analysis.context import MUTATING_METHODS, terminal_name
from repro.analysis.directives import Directives
from repro.analysis.finding import Finding
from repro.analysis.program import (
    Function,
    Module,
    Program,
    T_FILE,
    T_LOCK,
    T_PROCESS_EXECUTOR,
    T_SOCKET,
    T_THREAD_EXECUTOR,
    assigned_names,
    dotted_chain,
)

#: A shared-state key: ("global", module_qual, name) or
#: ("field", class_qual, attr).
StateKey = tuple[str, str, str]

#: Special guard name meaning "single bytecode op, the GIL suffices".
GIL_GUARD = "gil"

#: Dotted stdlib chains that block the calling thread.
BLOCKING_CHAINS: dict[str, str] = {
    "time.sleep": "time.sleep",
    "os.system": "os.system",
    "os.wait": "os.wait",
    "os.waitpid": "os.waitpid",
    "subprocess.run": "subprocess.run",
    "subprocess.call": "subprocess.call",
    "subprocess.check_call": "subprocess.check_call",
    "subprocess.check_output": "subprocess.check_output",
    "subprocess.Popen": "subprocess.Popen",
    "socket.create_connection": "socket.create_connection",
    "select.select": "select.select",
    "urllib.request.urlopen": "urllib.request.urlopen",
    "requests.get": "requests.get",
    "requests.post": "requests.post",
}

#: Attribute-call names that block unless awaited (sync lock
#: acquisition, sync file/socket I/O). An ``await x.acquire()`` is an
#: asyncio primitive and is exempt at the collection site.
BLOCKING_ATTRS: dict[str, str] = {
    "acquire": "sync lock acquisition",
    "read_text": "sync file read",
    "read_bytes": "sync file read",
    "write_text": "sync file write",
    "write_bytes": "sync file write",
    "recv": "sync socket read",
    "sendall": "sync socket write",
    "accept": "sync socket accept",
}

#: Project functions that are themselves blocking primitives: the
#: scalar evaluation pipeline (CPU-bound for milliseconds per config)
#: and the cache's disk I/O. Reaching one of these from a coroutine
#: without an executor hop stalls the event loop.
BLOCKING_PROJECT: dict[str, str] = {
    "repro.engine.record.evaluate_config": "scalar config evaluation",
    "repro.engine.evaluate_many": "batch evaluation",
    "repro.engine.sweep.run_sweep": "sweep evaluation",
    "repro.chip.processor.Processor.report": "scalar report evaluation",
}

_RESOURCE_TYPES: dict[str, str] = {
    T_LOCK: "a threading lock",
    T_FILE: "an open file handle",
    T_SOCKET: "a live socket",
    T_THREAD_EXECUTOR: "a running thread executor",
    T_PROCESS_EXECUTOR: "a running process pool",
}


@dataclass(frozen=True, slots=True)
class Access:
    """One read or write of a shared state key inside one function."""

    key: StateKey
    node: Function
    line: int
    write: bool
    atomic: bool  # plain rebind — a single STORE op under the GIL
    held: tuple[str, ...]  # locks held at the site, in acquisition order
    op: str  # human description of the operation
    in_init: bool  # inside the owning class's __init__/__post_init__


@dataclass(frozen=True)
class BlockingCall:
    """One direct call to a blocking primitive inside one function."""

    node: Function
    line: int
    what: str  # "time.sleep", "sync lock acquisition", ...
    under_lock: bool  # ``with lock: ...`` bodies are not re-flagged


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class StateModel:
    """Shared-state facts keyed alongside the context model."""

    accesses: list[Access] = field(default_factory=list)
    blocking: dict[str, list[BlockingCall]] = field(default_factory=dict)
    #: classes whose instances are reachable from module level.
    shared_classes: set[str] = field(default_factory=set)
    #: why each class is considered shared (for finding chains).
    shared_why: dict[str, str] = field(default_factory=dict)
    #: state key -> declared guard lock name (trusted annotation).
    guard_decls: dict[StateKey, str] = field(default_factory=dict)
    #: state key -> (path, line) of the directive that declared it.
    guard_where: dict[StateKey, tuple[str, int]] = field(
        default_factory=dict,
    )
    #: state key -> resource description, for CONC003.
    resources: dict[StateKey, str] = field(default_factory=dict)
    #: state keys rewritten inside an after-fork child callback.
    reinit_keys: set[StateKey] = field(default_factory=set)
    #: attr names rewritten in an after-fork callback on *any* class —
    #: fallback for untyped loops over registries.
    reinit_attrs: set[str] = field(default_factory=set)
    #: CONCNOTE findings: malformed or unverifiable guarded-by.
    guard_issues: list[Finding] = field(default_factory=list)


def render_key(key: StateKey) -> str:
    """Display form of a state key (``module.NAME`` / ``Class.attr``)."""
    _kind, scope, name = key
    return f"{scope}.{name}"


def guard_table(
    directives: Directives,
) -> tuple[dict[int, str], list[tuple[int, str]]]:
    """``guarded-by[lock]`` lock names by line, plus errors."""
    by_line: dict[int, str] = {}
    errors = directives.notes("guarded-by")
    for directive in directives.of("guarded-by"):
        body = directive.body.strip()
        if not body or not body.replace("_", "a").isidentifier():
            errors.append((
                directive.line,
                f"guarded-by lock name {body!r} is not an identifier",
            ))
            continue
        by_line[directive.line] = body
    return by_line, errors


def _lock_name(expr: ast.expr) -> str | None:
    """Terminal identifier of a lock expression (``self._lock`` -> _lock);
    a call names its callee (``self._lock_for(key)`` -> ``_lock_for``)."""
    while isinstance(expr, ast.Call):
        expr = expr.func
    return terminal_name(expr)


def _release(held: list[str], name: str) -> None:
    """Drop the most recent acquisition of ``name`` from ``held``."""
    if name in held:
        del held[len(held) - 1 - held[::-1].index(name)]


class _StateScanner:
    """Collect accesses, held locks, and blocking calls of one function."""

    def __init__(self, program: Program, state: StateModel,
                 fn: Function) -> None:
        self.program = program
        self.state = state
        self.fn = fn
        self.module = fn.module
        self.in_init = fn.owner is not None and fn.name in (
            "__init__", "__post_init__",
        )
        self.declared_globals: set[str] = set()
        self.locals_seen: set[str] = set(fn.param_names)
        #: calls that sit directly under ``await``
        self.awaited = {
            id(item.value) for item in fn.own
            if isinstance(item, ast.Await) and isinstance(item.value, ast.Call)
        }

    # -- key resolution --------------------------------------------------

    def _key_of(self, expr: ast.expr) -> StateKey | None:
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self.locals_seen and name not in \
                    self.declared_globals:
                return None
            if name in self.module.globals:
                return ("global", self.module.qualname, name)
            return None
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            if expr.value.id == self.fn.self_name and \
                    self.fn.owner is not None:
                return ("field", self.fn.owner.qualname, expr.attr)
            # Module attribute access: ``metrics._COUNTERS``.
            module_qual = self.program.module_ref(self.module, expr.value)
            if module_qual in self.program.by_qual:
                return ("global", module_qual, expr.attr)
            # Typed receiver: ``memo.hits`` where memo: Memo.
            base = self.program.instance_type(self.fn, self.module,
                                              expr.value)
            if base is not None and not base.startswith("#"):
                return ("field", base, expr.attr)
        return None

    # -- scanning --------------------------------------------------------

    def scan(self) -> None:
        if self.fn.is_lambda:
            self._scan_expr(self.fn.node.body, held=[])
        else:
            self._scan_block(self.fn.node.body, held=[])

    def _scan_block(self, statements: list[ast.stmt],
                    held: list[str]) -> None:
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Global):
                self.declared_globals.update(stmt.names)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                names = []
                for item in stmt.items:
                    self._scan_expr(item.context_expr, held)
                    name = _lock_name(item.context_expr)
                    if name is not None and self._looks_like_lock(
                        item.context_expr, name,
                    ):
                        names.append(name)
                self._scan_block(stmt.body, held + names)
                continue
            # lock.acquire() / lock.release() statement pairs.
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Call
            ) and isinstance(stmt.value.func, ast.Attribute):
                attr = stmt.value.func.attr
                name = _lock_name(stmt.value.func.value)
                if attr == "acquire" and name is not None and \
                        self._looks_like_lock(stmt.value.func.value, name):
                    self._scan_expr(stmt.value, held)
                    held.append(name)
                    continue
                if attr == "release" and name is not None:
                    _release(held, name)
                    self._scan_expr(stmt.value, held)
                    continue
            self._scan_stmt(stmt, held)

    def _looks_like_lock(self, expr: ast.expr, name: str) -> bool:
        if not isinstance(expr, ast.Call) and self.program.instance_type(
            self.fn, self.module, expr,
        ) == T_LOCK:
            return True
        owner = self.fn.owner
        if isinstance(expr, ast.Attribute) and owner is not None and \
                owner.attrs.get(expr.attr) == T_LOCK:
            return True
        lower = name.lower()
        return "lock" in lower or "mutex" in lower or lower == "cond"

    def _scan_stmt(self, stmt: ast.stmt, held: list[str]) -> None:
        guard = tuple(held)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_store(target, stmt.lineno, guard,
                                   augmented=False)
                if isinstance(target, ast.Name):
                    self.locals_seen.add(target.id)
            self._scan_expr(stmt.value, held)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._record_store(stmt.target, stmt.lineno, guard,
                                   augmented=False)
                self._scan_expr(stmt.value, held)
            return
        if isinstance(stmt, ast.AugAssign):
            self._record_store(stmt.target, stmt.lineno, guard,
                               augmented=True)
            self._scan_expr(stmt.value, held)
            return
        if isinstance(stmt, (ast.Delete,)):
            for target in stmt.targets:
                self._record_store(target, stmt.lineno, guard,
                                   augmented=True)
            return
        if isinstance(stmt, ast.For) and isinstance(
            stmt.target, ast.Name
        ):
            self.locals_seen.add(stmt.target.id)
        # Compound statements: recurse into child blocks with the same
        # locks held; scan embedded expressions.
        for _field_name, value in ast.iter_fields(stmt):
            if isinstance(value, list) and value and isinstance(
                value[0], ast.stmt
            ):
                self._scan_block(value, list(held))
            elif isinstance(value, ast.expr):
                self._scan_expr(value, held)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        self._scan_expr(item, held)
                    elif isinstance(item, ast.excepthandler):
                        self._scan_block(item.body, list(held))

    def _record_store(self, target: ast.expr, line: int,
                      guard: tuple[str, ...], augmented: bool) -> None:
        # Plain rebind of a name or attribute is a single STORE op and
        # is atomic under the GIL; compound ops and container element
        # stores are read-modify-write and race.
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_store(element, line, guard, augmented)
            return
        if isinstance(target, ast.Subscript):
            key = self._key_of(target.value)
            if key is not None:
                self._add_access(key, line, write=True, atomic=False,
                                 guard=guard, op="subscript store")
            return
        if isinstance(target, ast.Name):
            # Assignment to a bare name only touches a module global
            # when the function declared it ``global`` (otherwise the
            # name is a function local, whatever the module defines).
            if target.id not in self.declared_globals:
                return
        key = self._key_of(target)
        if key is None:
            return
        op = "augmented assignment (read-modify-write)" if augmented \
            else "rebind"
        self._add_access(key, line, write=True, atomic=not augmented,
                         guard=guard, op=op)

    def _scan_expr(self, expr: ast.expr, held: list[str]) -> None:
        guard = tuple(held)
        for item in ast.walk(expr):
            if isinstance(item, ast.Call):
                self._scan_call(item, guard)
            elif isinstance(item, (ast.Name, ast.Attribute)) and \
                    isinstance(item.ctx, ast.Load):
                key = self._key_of(item)
                if key is not None:
                    self._add_access(key, item.lineno, write=False,
                                     atomic=True, guard=guard, op="read")

    def _scan_call(self, call: ast.Call, guard: tuple[str, ...]) -> None:
        func = call.func
        # Mutating method on shared state: ``_REGISTRY.append(...)``.
        if isinstance(func, ast.Attribute) and \
                func.attr in MUTATING_METHODS:
            key = self._key_of(func.value)
            if key is not None:
                self._add_access(
                    key, call.lineno, write=True, atomic=False,
                    guard=guard, op=f".{func.attr}() mutation",
                )
        # Blocking primitives for CONC002.
        what: str | None = None
        chain = dotted_chain(func, self.module)
        if chain is not None and chain in BLOCKING_CHAINS:
            what = BLOCKING_CHAINS[chain]
        elif chain is not None and chain in BLOCKING_PROJECT:
            # Also resolved as a call edge when the callee module is
            # indexed; the rule dedupes by site. This chain match covers
            # callers linted without the full package in the index.
            what = BLOCKING_PROJECT[chain]
        elif isinstance(func, ast.Name) and func.id == "open":
            what = "sync file open"
        elif isinstance(func, ast.Attribute) and \
                func.attr in BLOCKING_ATTRS:
            if id(call) not in self.awaited:
                what = BLOCKING_ATTRS[func.attr]
        if what is not None:
            self.state.blocking.setdefault(
                self.fn.qualname, [],
            ).append(BlockingCall(
                node=self.fn, line=call.lineno, what=what,
                under_lock=bool(guard),
            ))

    def _add_access(self, key: StateKey, line: int, write: bool,
                    atomic: bool, guard: tuple[str, ...], op: str) -> None:
        in_init = self.in_init and key[0] == "field" and \
            self.fn.owner is not None and key[1] == \
            self.fn.owner.qualname
        self.state.accesses.append(Access(
            key=key, node=self.fn, line=line, write=write,
            atomic=atomic, held=guard, op=op, in_init=in_init,
        ))


def _note(path: str, line: int, message: str) -> Finding:
    return Finding(path=path, line=line, col=0, rule="CONCNOTE",
                   message=message)


def _guarded_keys(program: Program, module: Module,
                  stmt: ast.stmt) -> tuple[list[StateKey], bool]:
    """State keys a ``guarded-by`` on ``stmt`` declares, and whether it
    covers a whole class (its fields keep their own declarations)."""
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and any(
        stmt is top for top in module.tree.body
    ):
        names = assigned_names(stmt)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) != 1:
            names = []
        return [("global", module.qualname, name) for name in names], False
    for cls in program.classes.values():
        if cls.module is not module:
            continue
        if stmt is cls.node:
            return [("field", cls.qualname, attr) for attr in cls.attrs], True
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ) and any(stmt is inner for inner in cls.node.body):
            return [("field", cls.qualname, stmt.target.id)], False
        targets = stmt.targets if isinstance(stmt, ast.Assign) else \
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        for method in cls.methods.values():
            if method.self_name is None or \
                    not any(stmt is item for item in method.own):
                continue
            return [
                ("field", cls.qualname, target.attr) for target in targets
                if isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == method.self_name
            ], False
    return [], False


def _bind_guards(program: Program, state: StateModel) -> None:
    """Declare the state each bound ``guarded-by`` directive covers.

    A module global's assignment guards that global; a class line every
    field of the class; a class-body annotation or a ``self.x``
    assignment in a method one field. Anything else, and a lock name not
    defined in the state's scope, is a CONCNOTE on the directive's line.
    """
    for module in program.modules.values():
        by_line, errors = guard_table(module.directives)
        for line, message in errors:
            state.guard_issues.append(_note(module.path, line, message))
        claimed: set[int] = set()
        for stmt in module.attached:
            lines = [
                d.line for d in module.held(stmt, "guarded-by")
                if d.line in by_line
            ]
            if not lines:
                continue
            keys, whole_class = _guarded_keys(program, module, stmt)
            for line in lines:
                if keys:
                    claimed.add(line)
                for key in keys:
                    if whole_class and key in state.guard_decls:
                        continue
                    state.guard_decls[key] = by_line[line]
                    state.guard_where[key] = (module.path, line)
        for line, lock in by_line.items():
            if line not in claimed:
                state.guard_issues.append(_note(
                    module.path, line,
                    f"guarded-by[{lock}] is not attached to a module "
                    "global, class, or self-field assignment",
                ))
    _validate_guard_locks(program, state)


def _validate_guard_locks(program: Program, state: StateModel) -> None:
    """Soft check: a declared guard lock should exist in its scope."""
    known: dict[tuple[str, str], set[str]] = {}
    for module in program.modules.values():
        known[("global", module.qualname)] = {
            name for name, typ in module.globals.items() if typ == T_LOCK
        }
    for cls in program.classes.values():
        known[("field", cls.qualname)] = {
            attr for attr, typ in cls.attrs.items() if typ == T_LOCK
        }
    for key, lock in state.guard_decls.items():
        if lock == GIL_GUARD:
            continue
        kind, scope, _name = key
        scoped = known.get((kind, scope), set())
        module_scope = scoped
        if kind == "field":
            module_scope = known.get(
                ("global", program.classes[scope].module.qualname), set(),
            )
        if lock not in scoped and lock not in module_scope:
            path, line = state.guard_where[key]
            state.guard_issues.append(_note(
                path, line,
                f"guarded-by[{lock}] on {render_key(key)} names a lock "
                "that is not defined in its scope",
            ))


def _collect_shared_classes(program: Program, state: StateModel) -> None:
    """Escape analysis: which classes' instances are module-reachable."""

    def mark(qual: str, why: str) -> None:
        if qual in state.shared_classes or qual not in program.classes:
            return
        state.shared_classes.add(qual)
        state.shared_why[qual] = why

    # Module-level instantiation / annotation.
    for module in program.modules.values():
        for name, typ in module.globals.items():
            if typ is not None:
                mark(typ, f"instantiated at module level as "
                          f"{module.qualname}.{name}")
    for module in program.modules.values():
        for name, typ in module.elem_types.items():
            mark(typ, f"stored in module-level container "
                      f"{module.qualname}.{name}")
    # self stored into a module global inside any method.
    for fn in program.functions.values():
        if fn.self_name is None or fn.owner is None:
            continue
        module = fn.module
        for item in fn.own:
            if isinstance(item, ast.Call) and isinstance(
                item.func, ast.Attribute
            ) and item.func.attr in MUTATING_METHODS:
                receiver = item.func.value
                if isinstance(receiver, ast.Name) and \
                        receiver.id in module.globals and any(
                            isinstance(arg, ast.Name)
                            and arg.id == fn.self_name for arg in item.args
                        ):
                    mark(fn.owner.qualname, f"registered into "
                                            f"{module.qualname}.{receiver.id}")
            elif isinstance(item, ast.Assign) and isinstance(
                item.value, ast.Name
            ) and item.value.id == fn.self_name:
                for target in item.targets:
                    if isinstance(target, ast.Subscript) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id in module.globals:
                        mark(fn.owner.qualname, f"stored into "
                                                f"{module.qualname}."
                                                f"{target.value.id}")
    # Instances constructed into module-level containers:
    # ``_HISTOGRAMS[name] = _HistogramState()``.
    for fn in program.functions.values():
        module_globals = fn.module.globals
        for item in fn.own:
            if not isinstance(item, ast.Assign):
                continue
            typ = program.ctor_type(fn, fn.module, item.value)
            if typ is None or typ.startswith("#"):
                continue
            for target in item.targets:
                escapes = (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in module_globals
                ) or (
                    isinstance(target, ast.Name)
                    and target.id in module_globals
                    and target.id not in fn.param_names
                )
                if escapes:
                    mark(typ, f"stored into a module-level container "
                              f"by {fn.short}")
    # Transitive: fields of shared classes are shared. A field entry is
    # revisited when its owning class becomes shared.
    Field = tuple[tuple[str, str], str]
    fields: list[Field] = [
        ((cls.qualname, attr), typ)
        for cls in program.classes.values()
        for attr, typ in cls.attrs.items() if typ in program.classes
    ]
    fields_of: dict[str, list[Field]] = {}
    for entry in fields:
        fields_of.setdefault(entry[0][0], []).append(entry)

    def step(entry: Field) -> list[Field]:
        (cls, attr), typ = entry
        if cls in state.shared_classes and typ not in state.shared_classes:
            mark(typ, f"held by shared class "
                      f"{program.classes[cls].name} as .{attr}")
            return fields_of.get(typ, [])
        return []

    fixpoint.solve(fields, step)


def _collect_resources(program: Program, state: StateModel) -> None:
    """State keys that hold fork-unsafe resources.

    Runs after :func:`_collect_reinit`: a class whose resource fields
    are all rebuilt in an after-fork child callback does not make the
    globals that hold its instances fork-unsafe.
    """
    for module in program.modules.values():
        for name, typ in module.globals.items():
            desc = _RESOURCE_TYPES.get(typ)
            if desc is not None:
                state.resources[("global", module.qualname, name)] = desc
            elif typ in program.classes:
                cls = program.classes[typ]
                fields = [
                    (attr, _RESOURCE_TYPES[held])
                    for attr, held in sorted(cls.attrs.items())
                    if held in _RESOURCE_TYPES
                    and ("field", typ, attr) not in state.reinit_keys
                ]
                if fields:
                    attr, field_desc = fields[0]
                    state.resources[("global", module.qualname, name)] = (
                        f"an instance of {cls.name} "
                        f"(which holds {field_desc} '{attr}')"
                    )
    for cls in program.classes.values():
        for attr, typ in cls.attrs.items():
            desc = _RESOURCE_TYPES.get(typ)
            if desc is not None:
                state.resources[("field", cls.qualname, attr)] = desc


def _collect_reinit(model: ContextModel, state: StateModel) -> None:
    """State rewritten in after-fork child callbacks is fork-safe."""
    for entry in model.atfork_child:
        stack = [entry]
        seen: set[str] = set()
        while stack:
            fn = stack.pop()
            if fn.qualname in seen:
                continue
            seen.add(fn.qualname)
            for access in state.accesses:
                if access.node is fn and access.write:
                    state.reinit_keys.add(access.key)
                    state.reinit_attrs.add(access.key[2])
            for edge in fn.calls:
                stack.append(edge.callee)
            stack.extend(fn.lambdas)


def build_state(model: ContextModel) -> StateModel:
    """Run every state collection pass for a solved context model."""
    program = model.program
    state = StateModel()
    for fn in program.bodies:
        _StateScanner(program, state, fn).scan()
    _bind_guards(program, state)
    _collect_shared_classes(program, state)
    _collect_reinit(model, state)
    _collect_resources(program, state)
    return state

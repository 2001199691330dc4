"""Shared-state and lock modeling for the concurrency analysis.

This module answers, for every :class:`~.contexts.Node`, four questions
the CONC rules combine with the execution contexts:

* which *shared state keys* (module globals and instance fields of
  escaping classes) the node reads and writes, and whether each write is
  a GIL-atomic rebind or a compound operation (``+=``, subscript store,
  mutating container method);
* which writes are *lock guarded* — lexically under ``with lock:`` or
  between ``lock.acquire()`` / ``lock.release()`` statements — and which
  state is covered by a trusted ``# repro: guarded-by[lockname]``
  annotation (see :mod:`repro.analysis.directives` for the grammar);
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
from repro.analysis.concurrency.contexts import (
    ContextModel,
    Node,
    T_FILE,
    T_LOCK,
    T_PROCESS_EXECUTOR,
    T_SOCKET,
    T_THREAD_EXECUTOR,
    dotted_chain,
)
from repro.analysis.context import MUTATING_METHODS, terminal_name
from repro.analysis.directives import Directives

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


@dataclass(frozen=True)
class Access:
    """One read or write of a shared state key inside one node."""

    key: StateKey
    node: Node
    line: int
    write: bool
    atomic: bool  # plain rebind — a single STORE op under the GIL
    guard: str | None  # lock terminal name the site is under, if any
    op: str  # human description of the operation
    in_init: bool  # inside the owning class's __init__/__post_init__


@dataclass(frozen=True)
class BlockingCall:
    """One direct call to a blocking primitive inside one node."""

    node: Node
    line: int
    what: str  # "time.sleep", "sync lock acquisition", ...
    under_lock: bool  # ``with lock: ...`` bodies are not re-flagged


@dataclass(frozen=True)
class GuardIssue:
    """A malformed or unverifiable guarded-by annotation (CONCNOTE)."""

    path: str
    line: int
    message: str


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
    #: state key -> resource description, for CONC003.
    resources: dict[StateKey, str] = field(default_factory=dict)
    #: state keys rewritten inside an after-fork child callback.
    reinit_keys: set[StateKey] = field(default_factory=set)
    #: attr names rewritten in an after-fork callback on *any* class —
    #: fallback for untyped loops over registries.
    reinit_attrs: set[str] = field(default_factory=set)
    #: lock terminal names known per (scope kind, scope qual).
    known_locks: dict[tuple[str, str], set[str]] = field(
        default_factory=dict
    )
    guard_issues: list[GuardIssue] = field(default_factory=list)


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


def _module_globals(tree: ast.Module) -> set[str]:
    """Names bound by module-level (annotated) assignments."""
    return {
        target.id
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
        if isinstance(target, ast.Name)
    }


class _StateScanner:
    """Collect accesses, guards, and blocking calls from one node."""

    def __init__(self, model: ContextModel, state: StateModel,
                 node: Node) -> None:
        self.model = model
        self.state = state
        self.node = node
        self.module = node.module
        self.in_init = node.owner is not None and node.name in (
            "__init__", "__post_init__",
        )
        self.module_globals = _module_globals(self.module.tree)
        self.declared_globals: set[str] = set()
        self.locals_seen: set[str] = set(node.params)

    # -- key resolution --------------------------------------------------

    def _key_of(self, expr: ast.expr) -> StateKey | None:
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self.locals_seen and name not in \
                    self.declared_globals:
                return None
            if name in self.module_globals:
                return ("global", self.module.qualname, name)
            return None
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            if (
                expr.value.id == self.node.self_name
                and self.node.owner is not None
            ):
                return ("field", self.node.owner.qualname, expr.attr)
            # Module attribute access: ``metrics._COUNTERS``.
            imported = self.module.imports.get(expr.value.id)
            if imported is not None and imported[0] == "module":
                target = self.model.project.by_qual.get(imported[1])
                if target is not None:
                    return ("global", target.qualname, expr.attr)
            # Typed receiver: ``memo.hits`` where memo: Memo.
            base = self._receiver_type(expr.value)
            if base is not None and not base.startswith("#"):
                return ("field", base, expr.attr)
        return None

    def _receiver_type(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            typ = self._local_types.get(expr.id)
            if typ is not None:
                return typ
            got = self.model.global_types.get(
                (self.module.qualname, expr.id)
            )
            return got
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            if expr.value.id == self.node.self_name \
                    and self.node.owner is not None:
                return self.model.field_types.get(
                    (self.node.owner.qualname, expr.attr)
                )
        return None

    # -- scanning --------------------------------------------------------

    def scan(self) -> None:
        self._local_types: dict[str, str] = {}
        self._scan_block(self.node.statements, guards=[], acquired=set())

    def _scan_block(self, statements: list[ast.stmt],
                    guards: list[str], acquired: set[str]) -> None:
        for stmt in statements:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, ast.Global):
                self.declared_globals.update(stmt.names)
                continue
            if isinstance(stmt, ast.With) or isinstance(
                stmt, ast.AsyncWith
            ):
                names = []
                for item in stmt.items:
                    self._scan_expr(item.context_expr, guards, acquired)
                    name = _lock_name(item.context_expr)
                    if name is not None and self._looks_like_lock(
                        item.context_expr, name,
                    ):
                        names.append(name)
                self._scan_block(
                    stmt.body, guards + names, acquired,
                )
                continue
            # lock.acquire() / lock.release() statement pairs.
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Call
            ) and isinstance(stmt.value.func, ast.Attribute):
                attr = stmt.value.func.attr
                name = _lock_name(stmt.value.func.value)
                if attr == "acquire" and name is not None and \
                        self._looks_like_lock(stmt.value.func.value, name):
                    self._scan_expr(stmt.value, guards, acquired)
                    acquired.add(name)
                    continue
                if attr == "release" and name is not None:
                    acquired.discard(name)
                    self._scan_expr(stmt.value, guards, acquired)
                    continue
            self._scan_stmt(stmt, guards, acquired)

    def _looks_like_lock(self, expr: ast.expr, name: str) -> bool:
        typ = self._receiver_type(expr) if not isinstance(expr, ast.Call) \
            else None
        if typ == T_LOCK:
            return True
        if isinstance(expr, ast.Attribute) and self.node.owner is not None:
            if self.model.field_types.get(
                (self.node.owner.qualname, expr.attr)
            ) == T_LOCK:
                return True
        lower = name.lower()
        return "lock" in lower or "mutex" in lower or lower == "cond"

    def _scan_stmt(self, stmt: ast.stmt, guards: list[str],
                   acquired: set[str]) -> None:
        guard = guards[-1] if guards else (
            next(iter(acquired)) if acquired else None
        )
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                self._record_store(target, stmt.lineno, guard,
                                   augmented=False)
                if isinstance(target, ast.Name):
                    self.locals_seen.add(target.id)
            self._scan_expr(stmt.value, guards, acquired)
            self._note_local_type(stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._record_store(stmt.target, stmt.lineno, guard,
                                   augmented=False)
                self._scan_expr(stmt.value, guards, acquired)
            return
        if isinstance(stmt, ast.AugAssign):
            self._record_store(stmt.target, stmt.lineno, guard,
                               augmented=True)
            self._scan_expr(stmt.value, guards, acquired)
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
            # ``for memo in _REGISTRY:`` — loop vars over an annotated
            # module container get the container's element type, so the
            # at-fork reinit pass can resolve ``memo._lock = Lock()``.
            if isinstance(stmt.iter, ast.Name):
                elem = self.model.elem_types.get(
                    (self.module.qualname, stmt.iter.id)
                )
                if elem is not None:
                    self._local_types[stmt.target.id] = elem
        # Compound statements: recurse into child blocks with the same
        # guard state; scan embedded expressions.
        for _field_name, value in ast.iter_fields(stmt):
            if isinstance(value, list) and value and isinstance(
                value[0], ast.stmt
            ):
                self._scan_block(value, guards, set(acquired))
            elif isinstance(value, ast.expr):
                self._scan_expr(value, guards, acquired)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        self._scan_expr(item, guards, acquired)
                    elif isinstance(item, ast.excepthandler):
                        self._scan_block(item.body, guards,
                                         set(acquired))

    def _note_local_type(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            from repro.analysis.concurrency.contexts import _ctor_type
            typ = _ctor_type(stmt.value, self.module, self.model.project)
            if typ is not None:
                self._local_types[stmt.targets[0].id] = typ

    def _record_store(self, target: ast.expr, line: int,
                      guard: str | None, augmented: bool) -> None:
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

    def _scan_expr(self, expr: ast.expr, guards: list[str],
                   acquired: set[str]) -> None:
        guard = guards[-1] if guards else (
            next(iter(acquired)) if acquired else None
        )
        for item in ast.walk(expr):
            if isinstance(item, ast.Lambda):
                continue  # scanned as its own node
            if isinstance(item, ast.Call):
                self._scan_call(item, guard, bool(guards or acquired))
            elif isinstance(item, (ast.Name, ast.Attribute)) and \
                    isinstance(item.ctx, ast.Load):
                key = self._key_of(item)
                if key is not None:
                    self._add_access(key, item.lineno, write=False,
                                     atomic=True, guard=guard, op="read")

    def _scan_call(self, call: ast.Call, guard: str | None,
                   under_lock: bool) -> None:
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
            if id(call) not in self._awaited:
                what = BLOCKING_ATTRS[func.attr]
        if what is not None:
            self.state.blocking.setdefault(
                self.node.qualname, [],
            ).append(BlockingCall(
                node=self.node, line=call.lineno, what=what,
                under_lock=under_lock,
            ))

    _awaited: frozenset[int] = frozenset()

    def collect_awaited(self) -> None:
        """Record calls that sit directly under ``await``."""
        awaited: set[int] = set()
        for stmt in self.node.statements:
            for item in ast.walk(stmt):
                if isinstance(item, ast.Await) and isinstance(
                    item.value, ast.Call
                ):
                    awaited.add(id(item.value))
        self._awaited = frozenset(awaited)

    def _add_access(self, key: StateKey, line: int, write: bool,
                    atomic: bool, guard: str | None, op: str) -> None:
        in_init = self.in_init and key[0] == "field" and \
            self.node.owner is not None and key[1] == \
            self.node.owner.qualname
        self.state.accesses.append(Access(
            key=key, node=self.node, line=line, write=write,
            atomic=atomic, guard=guard, op=op, in_init=in_init,
        ))


def bind_guard_comments(model: ContextModel, state: StateModel) -> None:
    """Parse and bind every module's guarded-by annotations."""
    project = model.project
    for info in project.by_qual.values():
        by_line, errors = guard_table(info.directives)
        for line, message in errors:
            state.guard_issues.append(GuardIssue(
                path=info.path, line=line, message=message,
            ))
        if not by_line:
            continue
        claimed: set[int] = set()
        # Module-level globals.
        for stmt in info.tree.body:
            target_name: str | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                target_name = stmt.targets[0].id
            elif isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                target_name = stmt.target.id
            if target_name is None:
                continue
            for line in range(stmt.lineno, (stmt.end_lineno or
                                            stmt.lineno) + 1):
                if line in by_line:
                    state.guard_decls[
                        ("global", info.qualname, target_name)
                    ] = by_line[line]
                    claimed.add(line)
        # Classes: class-line comments guard every field; class-body
        # AnnAssign and in-method self.x stores guard one field.
        for cls in project.classes.values():
            if cls.module_qual != info.qualname:
                continue
            class_node = _class_node(info.tree, cls.name)
            if class_node is None:
                continue
            header_end = class_node.body[0].lineno - 1 \
                if class_node.body else class_node.lineno
            for line in range(class_node.lineno, header_end + 1):
                if line in by_line:
                    lock = by_line[line]
                    claimed.add(line)
                    for attr in _class_attrs(class_node):
                        state.guard_decls.setdefault(
                            ("field", cls.qualname, attr), lock,
                        )
            for stmt in class_node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ) and stmt.lineno in by_line:
                    state.guard_decls[
                        ("field", cls.qualname, stmt.target.id)
                    ] = by_line[stmt.lineno]
                    claimed.add(stmt.lineno)
            for method in cls.methods.values():
                self_name = method.self_name
                if self_name is None:
                    continue
                for stmt in ast.walk(method.node):
                    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        continue
                    if stmt.lineno not in by_line:
                        continue
                    targets = stmt.targets if isinstance(
                        stmt, ast.Assign
                    ) else [stmt.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id == self_name:
                            state.guard_decls[
                                ("field", cls.qualname, target.attr)
                            ] = by_line[stmt.lineno]
                            claimed.add(stmt.lineno)
        for line, lock in by_line.items():
            if line not in claimed:
                state.guard_issues.append(GuardIssue(
                    path=info.path, line=line,
                    message=(
                        f"guarded-by[{lock}] is not attached to a "
                        "module global, class, or self-field assignment"
                    ),
                ))
    _validate_guard_locks(model, state)


def _class_node(tree: ast.Module, name: str) -> ast.ClassDef | None:
    for item in ast.walk(tree):
        if isinstance(item, ast.ClassDef) and item.name == name:
            return item
    return None


def _class_attrs(class_node: ast.ClassDef) -> list[str]:
    attrs: list[str] = []
    for stmt in class_node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            attrs.append(stmt.target.id)
    for item in ast.walk(class_node):
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = item.args
            formals = [*args.posonlyargs, *args.args]
            self_name = formals[0].arg if formals else None
            for sub in ast.walk(item):
                if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                    targets = sub.targets if isinstance(sub, ast.Assign) \
                        else [sub.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id == self_name:
                            attrs.append(target.attr)
    return attrs


def _validate_guard_locks(model: ContextModel, state: StateModel) -> None:
    """Soft check: a declared guard lock should exist in its scope."""
    # Known lock names per scope from the type maps.
    for (mod, name), typ in model.global_types.items():
        if typ == T_LOCK:
            state.known_locks.setdefault(("global", mod), set()).add(name)
    for (cls, attr), typ in model.field_types.items():
        if typ == T_LOCK:
            state.known_locks.setdefault(("field", cls), set()).add(attr)
    for key, lock in state.guard_decls.items():
        if lock == GIL_GUARD:
            continue
        kind, scope, _name = key
        scoped = state.known_locks.get((kind, scope), set())
        module_scope: set[str] = set()
        if kind == "field":
            cls = model.project.classes.get(scope)
            if cls is not None:
                module_scope = state.known_locks.get(
                    ("global", cls.module_qual), set(),
                )
        else:
            module_scope = scoped
        if lock not in scoped and lock not in module_scope:
            info = model.project.by_qual.get(
                scope if kind == "global" else
                (model.project.classes[scope].module_qual
                 if scope in model.project.classes else scope)
            )
            path = info.path if info is not None else "<unknown>"
            state.guard_issues.append(GuardIssue(
                path=path, line=1,
                message=(
                    f"guarded-by[{lock}] on {render_key(key)} names a "
                    f"lock that is not defined in its scope"
                ),
            ))


def _collect_shared_classes(model: ContextModel,
                            state: StateModel) -> None:
    """Escape analysis: which classes' instances are module-reachable."""
    project = model.project

    def mark(qual: str, why: str) -> None:
        if qual in state.shared_classes or qual not in project.classes:
            return
        state.shared_classes.add(qual)
        state.shared_why[qual] = why

    # Module-level instantiation / annotation.
    for (mod, name), typ in model.global_types.items():
        if not typ.startswith("#") and typ in project.classes:
            cls = project.classes[typ]
            mark(typ, f"instantiated at module level as {mod}.{name}")
    for (mod, name), typ in model.elem_types.items():
        if typ in project.classes:
            mark(typ, f"stored in module-level container {mod}.{name}")
    # self stored into a module global inside any method.
    for cls in project.classes.values():
        info = project.by_qual.get(cls.module_qual)
        if info is None:
            continue
        module_globals = _module_globals(info.tree)
        for method in cls.methods.values():
            self_name = method.self_name
            if self_name is None:
                continue
            for item in ast.walk(method.node):
                stored = False
                where = ""
                if isinstance(item, ast.Call) and isinstance(
                    item.func, ast.Attribute
                ) and item.func.attr in MUTATING_METHODS:
                    receiver = item.func.value
                    if isinstance(receiver, ast.Name) and \
                            receiver.id in module_globals:
                        for arg in item.args:
                            if isinstance(arg, ast.Name) and \
                                    arg.id == self_name:
                                stored = True
                                where = f"registered into " \
                                        f"{info.qualname}.{receiver.id}"
                elif isinstance(item, ast.Assign):
                    for target in item.targets:
                        if isinstance(target, ast.Subscript) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id in module_globals and \
                                isinstance(item.value, ast.Name) and \
                                item.value.id == self_name:
                            stored = True
                            where = f"stored into " \
                                    f"{info.qualname}.{target.value.id}"
                if stored:
                    mark(cls.qualname, where)
    # Instances constructed into module-level containers:
    # ``_HISTOGRAMS[name] = _HistogramState()``.
    for node in model.nodes.values():
        module_globals = _module_globals(node.module.tree)
        body = node.body
        if not isinstance(body, list):
            continue
        for item in ast.walk(ast.Module(body=body, type_ignores=[])):
            if not isinstance(item, ast.Assign):
                continue
            from repro.analysis.concurrency.contexts import _ctor_type
            typ = _ctor_type(item.value, node.module, project)
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
                    and target.id not in node.params
                )
                if escapes:
                    mark(typ, f"stored into a module-level container "
                              f"by {node.short}")
    # Transitive: fields of shared classes are shared. A field entry is
    # revisited when its owning class becomes shared.
    Field = tuple[tuple[str, str], str]
    fields: list[Field] = list(model.field_types.items())
    fields_of: dict[str, list[Field]] = {}
    for entry in fields:
        fields_of.setdefault(entry[0][0], []).append(entry)

    def step(entry: Field) -> list[Field]:
        (cls, attr), typ = entry
        if cls in state.shared_classes and \
                not typ.startswith("#") and \
                typ in project.classes and \
                typ not in state.shared_classes:
            mark(typ, f"held by shared class "
                      f"{project.classes[cls].name} as .{attr}")
            return fields_of.get(typ, [])
        return []

    fixpoint.solve(fields, step)


def _collect_resources(model: ContextModel, state: StateModel) -> None:
    """State keys that hold fork-unsafe resources.

    Runs after :func:`_collect_reinit`: a class whose resource fields
    are all rebuilt in an after-fork child callback does not make the
    globals that hold its instances fork-unsafe.
    """
    for (mod, name), typ in model.global_types.items():
        desc = _RESOURCE_TYPES.get(typ)
        if desc is not None:
            state.resources[("global", mod, name)] = desc
        elif typ in model.project.classes:
            fields = _class_resource_fields(model, state, typ)
            if fields:
                attr, field_desc = fields[0]
                state.resources[("global", mod, name)] = (
                    f"an instance of {model.project.classes[typ].name} "
                    f"(which holds {field_desc} '{attr}')"
                )
    for (cls, attr), typ in model.field_types.items():
        desc = _RESOURCE_TYPES.get(typ)
        if desc is not None:
            state.resources[("field", cls, attr)] = desc


def _class_resource_fields(
    model: ContextModel, state: StateModel, qual: str,
) -> list[tuple[str, str]]:
    """A class's fork-unsafe fields, minus ones reinitialized at fork."""
    return [
        (attr, _RESOURCE_TYPES[typ])
        for (cls, attr), typ in sorted(model.field_types.items())
        if cls == qual and typ in _RESOURCE_TYPES
        and ("field", cls, attr) not in state.reinit_keys
    ]


def _collect_reinit(model: ContextModel, state: StateModel) -> None:
    """State rewritten in after-fork child callbacks is fork-safe."""
    for entry in model.atfork_child:
        stack = [entry]
        seen: set[str] = set()
        while stack:
            node = stack.pop()
            if node.qualname in seen:
                continue
            seen.add(node.qualname)
            for access in state.accesses:
                if access.node is node and access.write:
                    state.reinit_keys.add(access.key)
                    state.reinit_attrs.add(access.key[2])
            for edge in node.calls:
                stack.append(edge.callee)
            for lam in node.inline_lambdas:
                stack.append(lam)


def build_state(model: ContextModel) -> StateModel:
    """Run every state collection pass for a solved context model."""
    state = StateModel()
    all_nodes = list(model.nodes.values()) + list(model.lambda_nodes)
    for node in all_nodes:
        scanner = _StateScanner(model, state, node)
        scanner.collect_awaited()
        scanner.scan()
    bind_guard_comments(model, state)
    _collect_shared_classes(model, state)
    _collect_reinit(model, state)
    _collect_resources(model, state)
    return state

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

Contexts propagate along the project call graph (built by the
dimensional pass's :func:`~repro.analysis.dimensional.callgraph
.build_project`) to a fixpoint of the shared worklist solver
(:mod:`repro.analysis.fixpoint`), including through *escaping callable
parameters*: when ``_admitted(work)`` hands ``work`` to
``run_in_executor``, every callable an outside caller binds to ``work``
is marked ``executor-thread`` — that is how the serve tier's evaluation
lambdas are tracked onto the executor.

Each context a node acquires carries a human-readable *why* chain
(``"submitted to a thread executor at app.py:357 by _admitted"``) that
the CONC rules embed in their findings, mirroring the DIM inference
chains.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis import fixpoint
from repro.analysis.dimensional.callgraph import (
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
)

#: Context names (values appear verbatim in findings).
MAIN = "main"
LOOP = "event-loop"
THREAD = "executor-thread"
FORK = "fork-worker"

#: Cap on duck-typed method resolution: a method name this ambiguous is
#: skipped rather than fanning context facts across unrelated classes.
_MAX_DUCK_CANDIDATES = 12

#: Method names shared with the builtin container/str protocols; an
#: attribute call with an *unknown* receiver type and one of these names
#: is almost always a dict/list/str operation, so duck-typed resolution
#: would wire unrelated classes together (every ``payload.get(...)``
#: would reach ``EvalCache.get``). Typed receivers still resolve.
_BUILTIN_COLLISIONS: frozenset[str] = frozenset(
    set(dir(dict)) | set(dir(list)) | set(dir(set)) | set(dir(str))
    | set(dir(tuple)) | set(dir(bytes)) | set(dir(frozenset))
    | set(dir(int)) | set(dir(float))
)

#: Pseudo-types for stdlib concurrency objects (values of the type maps).
T_THREAD_EXECUTOR = "#thread-executor"
T_PROCESS_EXECUTOR = "#process-executor"
T_THREAD = "#thread"
T_PROCESS = "#process"
T_LOCK = "#lock"
T_FILE = "#file"
T_SOCKET = "#socket"

#: Constructor name -> pseudo-type, for stdlib concurrency/resource
#: objects resolved by terminal callable name.
_STDLIB_CTORS: dict[str, str] = {
    "ThreadPoolExecutor": T_THREAD_EXECUTOR,
    "ProcessPoolExecutor": T_PROCESS_EXECUTOR,
    "Pool": T_PROCESS_EXECUTOR,
    "Thread": T_THREAD,
    "Process": T_PROCESS,
    "Lock": T_LOCK,
    "RLock": T_LOCK,
    "Condition": T_LOCK,
    "Semaphore": T_LOCK,
    "BoundedSemaphore": T_LOCK,
    "open": T_FILE,
    "socket": T_SOCKET,
    "create_connection": T_SOCKET,
}

#: ``asyncio`` constructors whose pseudo-types must NOT be treated as
#: thread-level locks or resources (an ``asyncio.Lock`` lives on the
#: loop; an ``asyncio.Semaphore`` is not a fork hazard).
_ASYNC_MODULES = frozenset({"asyncio"})


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class Node:
    """One unit of executable code: a def, an async def, or a lambda."""

    qualname: str
    module: ModuleInfo
    body: list[ast.stmt] | ast.expr
    is_async: bool
    owner: ClassInfo | None = None
    self_name: str | None = None
    params: tuple[str, ...] = ()
    enclosing: "Node | None" = None  # set for lambdas only
    # -- structural facts filled by collection --------------------------
    calls: list["CallEdge"] = field(default_factory=list)
    spawns: list["SpawnEdge"] = field(default_factory=list)
    callable_args: list["CallableArg"] = field(default_factory=list)
    inline_lambdas: list["Node"] = field(default_factory=list)
    in_degree: int = 0
    is_spawn_target: bool = False

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def short(self) -> str:
        """Class-qualified display name (``Memo.get_or_compute``)."""
        if self.owner is not None:
            return f"{self.owner.name}.{self.name}"
        return self.name

    @property
    def statements(self) -> list[ast.stmt]:
        """The body as statements (a lambda's expression wrapped)."""
        if isinstance(self.body, list):
            return self.body
        return [ast.Expr(self.body)]


@dataclass(frozen=True)
class CallEdge:
    """A plain (same-context) call from one node to another."""

    callee: Node
    line: int


@dataclass(frozen=True)
class SpawnEdge:
    """A call that moves its target into another execution context."""

    target: Node
    context: str
    line: int
    how: str  # e.g. "submitted to a thread executor"


@dataclass(frozen=True)
class CallableArg:
    """A callable bound to a callee parameter (higher-order tracking)."""

    callee: Node
    param: str
    candidates: tuple[Node, ...]
    caller_param: str | None  # set when the arg is a param of the caller
    line: int


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class ContextModel:
    """Everything the CONC rules consume about who runs where."""

    project: Project
    nodes: dict[str, Node] = field(default_factory=dict)
    lambda_nodes: list[Node] = field(default_factory=list)
    ctx: dict[str, set[str]] = field(default_factory=dict)
    why: dict[tuple[str, str], str] = field(default_factory=dict)
    #: (node qual, param name) -> contexts the param escapes into.
    escapes: dict[tuple[str, str], set[str]] = field(default_factory=dict)
    #: entry nodes of fork workers (spawn targets + at-fork callbacks).
    fork_entries: list[Node] = field(default_factory=list)
    #: nodes registered as ``os.register_at_fork(after_in_child=...)``.
    atfork_child: list[Node] = field(default_factory=list)
    #: (module_qual, name) -> pseudo/class type of a module global.
    global_types: dict[tuple[str, str], str] = field(default_factory=dict)
    #: (class qual, attr) -> pseudo/class type of an instance field.
    field_types: dict[tuple[str, str], str] = field(default_factory=dict)
    #: (module_qual, name) -> element type of an annotated container.
    elem_types: dict[tuple[str, str], str] = field(default_factory=dict)
    #: project-decorator qualname -> nodes decorated with it, so the
    #: analyses can resolve wrapper-internal calls of the bound callable
    #: parameter back to the real decorated functions.
    decorator_bindings: dict[str, list[Node]] = field(default_factory=dict)

    def contexts(self, node: Node) -> frozenset[str]:
        return frozenset(self.ctx.get(node.qualname, ()))

    def reason(self, node: Node, context: str) -> str:
        return self.why.get(
            (node.qualname, context), f"runs in {context}",
        )


#: Longest chain fragment kept in a why or embedded in a message.
_CHAIN_LIMIT = 200


def trim_chain(text: str) -> str:
    """Cap an inference chain at a readable length."""
    if len(text) > _CHAIN_LIMIT:
        return text[:_CHAIN_LIMIT - 3] + "..."
    return text


class _TypeEnv:
    """Per-function name -> type map (params, locals, module globals)."""

    def __init__(self, model: ContextModel, node: Node) -> None:
        self.model = model
        self.node = node
        self.local: dict[str, str] = {}

    def lookup(self, name: str) -> str | None:
        if name in self.local:
            return self.local[name]
        key = (self.node.module.qualname, name)
        got = self.model.global_types.get(key)
        if got is not None:
            return got
        # Imported symbol that is itself a class.
        imported = self.node.module.imports.get(name)
        if imported is not None and imported[0] == "symbol":
            if imported[1] in self.model.project.classes:
                return imported[1]
        return None


def dotted_chain(node: ast.expr, module: ModuleInfo) -> str | None:
    """Render ``a.b.c`` resolving the head through the import map."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    head = cur.id
    imported = module.imports.get(head)
    if imported is not None:
        kind, qual = imported
        head = qual
    parts.append(head)
    return ".".join(reversed(parts))


def _ctor_type(call: ast.expr, module: ModuleInfo,
               project: Project) -> str | None:
    """Type of a constructor-call expression, or None."""
    if not isinstance(call, ast.Call):
        return None
    func = call.func
    terminal: str | None = None
    if isinstance(func, ast.Name):
        terminal = func.id
        imported = module.imports.get(terminal)
        if imported is not None and imported[0] == "symbol":
            if imported[1] in project.classes:
                return imported[1]
            if imported[1].split(".")[0] in _ASYNC_MODULES:
                return None
        local_qual = f"{module.qualname}.{terminal}"
        if local_qual in project.classes:
            return local_qual
    elif isinstance(func, ast.Attribute):
        terminal = func.attr
        chain = dotted_chain(func, module)
        if chain is not None:
            head = chain.split(".")[0]
            if head in _ASYNC_MODULES:
                return None
            if chain in project.classes:
                return chain
    if terminal in _STDLIB_CTORS:
        return _STDLIB_CTORS[terminal]
    return None


def _annotation_classes(ann: ast.expr, module: ModuleInfo,
                        project: Project) -> list[str]:
    """Project classes named anywhere inside a type annotation."""
    found: list[str] = []
    for sub in ast.walk(ann):
        name: str | None = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value  # forward reference
        if name is None:
            continue
        imported = module.imports.get(name)
        if imported is not None and imported[0] == "symbol" \
                and imported[1] in project.classes:
            found.append(imported[1])
            continue
        local_qual = f"{module.qualname}.{name}"
        if local_qual in project.classes:
            found.append(local_qual)
        else:
            for cls in project.class_by_name.get(name, []):
                found.append(cls.qualname)
                break
    return found


def _collect_types(model: ContextModel) -> None:
    """Pre-pass: module-global and instance-field types."""
    project = model.project
    for info in project.by_qual.values():
        for stmt in info.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            ann: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
                ann = stmt.annotation
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                key = (info.qualname, target.id)
                if value is not None:
                    typ = _ctor_type(value, info, project)
                    if typ is not None:
                        model.global_types[key] = typ
                if ann is not None:
                    # list["Memo"]-style element types for containers.
                    if isinstance(ann, ast.Subscript):
                        elems = _annotation_classes(ann.slice, info, project)
                        if elems:
                            model.elem_types[key] = elems[0]
                    classes = _annotation_classes(ann, info, project)
                    if classes and key not in model.global_types:
                        model.global_types[key] = classes[0]
    for cls in project.classes.values():
        info = project.by_qual.get(cls.module_qual)
        if info is None:
            continue
        for method in cls.methods.values():
            self_name = method.self_name
            if self_name is None:
                continue
            for stmt in ast.walk(method.node):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) \
                    else [stmt.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == self_name
                        and stmt.value is not None
                    ):
                        typ = _ctor_type(stmt.value, info, project)
                        key = (cls.qualname, target.attr)
                        if typ is not None:
                            model.field_types.setdefault(key, typ)
    # Annotated constructor params often document field types
    # (``cache: EvalCache | None``); fold __init__ annotations in.
    for cls in project.classes.values():
        info = project.by_qual.get(cls.module_qual)
        init = cls.methods.get("__init__")
        if info is None or init is None:
            continue
        args = init.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is None:
                continue
            classes = _annotation_classes(arg.annotation, info,
                                          model.project)
            if classes:
                model.field_types.setdefault(
                    (cls.qualname, arg.arg), classes[0],
                )


def _make_nodes(model: ContextModel) -> None:
    """Wrap every collected function (and lambda) in a :class:`Node`."""
    project = model.project
    for fn in project.functions.values():
        info = project.by_qual.get(fn.module_qual)
        if info is None:
            continue
        owner = project.classes.get(fn.class_qual) if fn.class_qual else None
        formals = fn.node.args
        params = tuple(
            a.arg for a in [*formals.posonlyargs, *formals.args,
                            *formals.kwonlyargs]
        )
        model.nodes[fn.qualname] = Node(
            qualname=fn.qualname,
            module=info,
            body=fn.node.body,
            is_async=isinstance(fn.node, ast.AsyncFunctionDef),
            owner=owner,
            self_name=fn.self_name,
            params=params,
        )


def iter_own_statements(body: list[ast.stmt]):
    """Walk statements/expressions of a body, skipping nested defs.

    Yields every AST node that belongs to *this* function — nested
    ``def``/``async def``/``class`` bodies are separate nodes and
    lambdas are handled by the caller through :func:`own_lambdas`.
    """
    stack: list[ast.AST] = list(body)
    while stack:
        item = stack.pop()
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        yield item
        stack.extend(ast.iter_child_nodes(item))


class _FunctionScanner:
    """Extract call/spawn/callable-arg edges from one node's body."""

    def __init__(self, model: ContextModel, node: Node) -> None:
        self.model = model
        self.node = node
        self.env = _TypeEnv(model, node)
        self.aliases: dict[str, list[Node]] = {}
        self.lambda_counter = 0

    # -- resolution ------------------------------------------------------

    def _function_by_name(self, name: str) -> Node | None:
        module = self.node.module
        local = self.model.nodes.get(f"{module.qualname}.{name}")
        if local is not None:
            return local
        imported = module.imports.get(name)
        if imported is not None and imported[0] == "symbol":
            target = self.model.nodes.get(imported[1])
            if target is not None:
                return target
            cls = self.model.project.classes.get(imported[1])
            if cls is not None:
                init = cls.methods.get("__init__")
                if init is not None:
                    return self.model.nodes.get(init.qualname)
        return None

    def _methods_named(self, attr: str,
                       receiver_type: str | None) -> list[Node]:
        project = self.model.project
        if receiver_type is not None and not receiver_type.startswith("#"):
            cls = project.classes.get(receiver_type)
            if cls is not None:
                method = cls.methods.get(attr)
                if method is not None:
                    found = self.model.nodes.get(method.qualname)
                    return [found] if found is not None else []
                return []
        if attr in _BUILTIN_COLLISIONS:
            return []
        candidates = project.attr_funcs.get(attr, [])
        if not candidates or len(candidates) > _MAX_DUCK_CANDIDATES:
            return []
        out = []
        for fn in candidates:
            found = self.model.nodes.get(fn.qualname)
            if found is not None:
                out.append(found)
        return out

    def _expr_type(self, expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            return self.env.lookup(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            if expr.value.id == self.node.self_name \
                    and self.node.owner is not None:
                return self.model.field_types.get(
                    (self.node.owner.qualname, expr.attr)
                )
            base = self.env.lookup(expr.value.id)
            if base is not None and not base.startswith("#"):
                return self.model.field_types.get((base, expr.attr))
        if isinstance(expr, ast.Call):
            return _ctor_type(expr, self.node.module, self.model.project)
        return None

    def _resolve_callable(
        self, expr: ast.expr,
    ) -> tuple[list[Node], str | None]:
        """Nodes an expression may refer to, plus the caller param name
        when the expression *is* one of this node's parameters."""
        if isinstance(expr, ast.Lambda):
            return [self._lambda_node(expr)], None
        if isinstance(expr, ast.Name):
            if expr.id in self.aliases:
                return list(self.aliases[expr.id]), None
            if expr.id in self.node.params:
                return [], expr.id
            fn = self._function_by_name(expr.id)
            return ([fn] if fn is not None else []), None
        if isinstance(expr, ast.Attribute):
            receiver_type = None
            if isinstance(expr.value, ast.Name):
                if expr.value.id == self.node.self_name \
                        and self.node.owner is not None:
                    receiver_type = self.node.owner.qualname
                else:
                    receiver_type = self.env.lookup(expr.value.id)
            else:
                receiver_type = self._expr_type(expr.value)
            chain = dotted_chain(expr, self.node.module)
            if chain is not None and receiver_type is None:
                direct = self.model.nodes.get(chain)
                if direct is not None:
                    return [direct], None
            return self._methods_named(expr.attr, receiver_type), None
        if isinstance(expr, ast.IfExp):
            left, _ = self._resolve_callable(expr.body)
            right, _ = self._resolve_callable(expr.orelse)
            return left + right, None
        if isinstance(expr, ast.Call) and expr.args:
            # ``functools.partial(fn, ...)`` call sites: the partial
            # object runs ``fn``, so resolve through to it.
            chain = dotted_chain(expr.func, self.node.module)
            if chain is not None and chain.rsplit(".", 1)[-1] == "partial":
                return self._resolve_callable(expr.args[0])
        return [], None

    def _lambda_node(self, expr: ast.Lambda) -> Node:
        for known in self.node.inline_lambdas:
            if known.body is expr.body:
                return known
        self.lambda_counter += 1
        made = Node(
            qualname=(f"{self.node.qualname}"
                      f".<lambda:{expr.lineno}:{self.lambda_counter}>"),
            module=self.node.module,
            body=expr.body,
            is_async=False,
            owner=self.node.owner,
            self_name=self.node.self_name,
            params=tuple(a.arg for a in expr.args.args),
            enclosing=self.node,
        )
        self.node.inline_lambdas.append(made)
        self.model.lambda_nodes.append(made)
        return made

    # -- extraction ------------------------------------------------------

    def scan(self) -> None:
        statements = self.node.statements
        self._collect_aliases(statements)
        own = list(iter_own_statements(statements)) \
            if isinstance(self.node.body, list) \
            else list(ast.walk(statements[0]))
        lambda_bodies = [
            item for item in own if isinstance(item, ast.Lambda)
        ]
        skip: set[int] = set()
        for lam in lambda_bodies:
            node = self._lambda_node(lam)
            for item in ast.walk(lam.body):
                skip.add(id(item))
            lam_scanner = _FunctionScanner(self.model, node)
            lam_scanner.aliases = self.aliases
            lam_scanner._scan_calls(list(ast.walk(lam.body)), set())
        self._scan_calls(own, skip)

    def _collect_aliases(self, statements: list[ast.stmt]) -> None:
        for item in iter_own_statements(statements):
            if isinstance(item, ast.Assign) and len(item.targets) == 1 \
                    and isinstance(item.targets[0], ast.Name):
                name = item.targets[0].id
                candidates, _ = self._resolve_callable(item.value)
                if candidates:
                    self.aliases[name] = candidates
                typ = self._expr_type(item.value)
                if typ is not None:
                    self.env.local[name] = typ
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                classes = _annotation_classes(
                    item.annotation, self.node.module, self.model.project,
                )
                if classes:
                    self.env.local[item.target.id] = classes[0]
            elif isinstance(item, ast.With):
                for w in item.items:
                    if isinstance(w.optional_vars, ast.Name):
                        typ = self._expr_type(w.context_expr)
                        if typ is not None:
                            self.env.local[w.optional_vars.id] = typ
            elif isinstance(item, ast.For) and isinstance(
                item.target, ast.Name
            ) and isinstance(item.iter, ast.Name):
                key = (self.node.module.qualname, item.iter.id)
                elem = self.model.elem_types.get(key)
                if elem is not None:
                    self.env.local[item.target.id] = elem

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
                receiver = self._expr_type(func.value)
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
        chain = dotted_chain(func, self.node.module) or ""
        terminal = chain.rsplit(".", 1)[-1]
        if chain == "asyncio.to_thread" and call.args:
            out.append((call.args[0], THREAD, "handed to asyncio.to_thread"))
        elif terminal == "Thread" and chain.startswith(("threading.", "Thread")):
            target = kwarg("target") or (
                call.args[1] if len(call.args) >= 2 else None
            )
            if target is not None:
                out.append((target, THREAD, "made a threading.Thread target"))
        elif terminal == "Process" and chain.startswith(
            ("multiprocessing.", "Process")
        ):
            target = kwarg("target") or (
                call.args[1] if len(call.args) >= 2 else None
            )
            if target is not None:
                out.append((target, FORK,
                            "made a multiprocessing.Process target"))
        elif chain == "os.register_at_fork":
            child = kwarg("after_in_child")
            if child is not None:
                out.append((child, FORK,
                            "registered as an after-fork child callback"))
        return out

    def _scan_calls(self, own: list[ast.AST], skip: set[int]) -> None:
        for item in own:
            if id(item) in skip or not isinstance(item, ast.Call):
                continue
            spawned_args: set[int] = set()
            for target_expr, context, how in self._spawn_of(item):
                spawned_args.add(id(target_expr))
                candidates, caller_param = self._resolve_callable(
                    target_expr
                )
                for target in candidates:
                    target.is_spawn_target = True
                    self.node.spawns.append(SpawnEdge(
                        target=target, context=context,
                        line=item.lineno, how=how,
                    ))
                    if context == FORK:
                        if how.startswith("registered"):
                            self.model.atfork_child.append(target)
                        self.model.fork_entries.append(target)
                if caller_param is not None:
                    self.model.escapes.setdefault(
                        (self.node.qualname, caller_param), set(),
                    ).add(context)
            callees, _ = self._resolve_callable(item.func)
            for callee in callees:
                callee.in_degree += 1
                self.node.calls.append(CallEdge(
                    callee=callee, line=item.lineno,
                ))
            # Callable arguments bound to callee params (higher order).
            for callee in callees:
                params = self._bindable_params(callee)
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

    @staticmethod
    def _bindable_params(callee: Node) -> tuple[str, ...]:
        params = callee.params
        if callee.self_name is not None and params:
            return params[1:]
        return params

    def _note_callable_arg(self, callee: Node, param: str,
                           arg: ast.expr, call: ast.Call) -> None:
        if not isinstance(arg, (ast.Lambda, ast.Name, ast.Attribute,
                                ast.Call)):
            return
        candidates, caller_param = self._resolve_callable(arg)
        funcish = [
            c for c in candidates
            if c.enclosing is not None or c.qualname in self.model.nodes
        ]
        if not funcish and caller_param is None:
            return
        self.node.callable_args.append(CallableArg(
            callee=callee, param=param,
            candidates=tuple(funcish),
            caller_param=caller_param, line=call.lineno,
        ))


def _bind_decorators(model: ContextModel) -> None:
    """Resolve project decorators (``functools.wraps``-style wrappers).

    ``@memoized def solve(...)`` binds ``solve`` to the decorator's
    first parameter; the wrapper closure then calls that parameter.
    Without this pass the wrapped function escapes every whole-program
    walk: the wrapper's ``fn(*args)`` resolves to nothing. Here every
    decorated function is (a) recorded in ``decorator_bindings`` for
    the keysound pass, (b) registered as a callable bound to the
    decorator's first parameter (so escape facts propagate), and (c)
    wired with real call edges from each wrapper-scope call of the
    parameter, so context and effect propagation reach it.
    """
    project = model.project
    for fn in project.functions.values():
        node = model.nodes.get(fn.qualname)
        if node is None:
            continue
        for dec in fn.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            dec_qual: str | None = None
            if isinstance(target, ast.Name):
                imported = node.module.imports.get(target.id)
                if imported is not None and imported[0] == "symbol":
                    dec_qual = imported[1]
                else:
                    dec_qual = f"{node.module.qualname}.{target.id}"
            elif isinstance(target, ast.Attribute):
                dec_qual = dotted_chain(target, node.module)
            if dec_qual is None:
                continue
            dec_node = model.nodes.get(dec_qual)
            if dec_node is None or not dec_node.params:
                continue
            model.decorator_bindings.setdefault(
                dec_node.qualname, [],
            ).append(node)
            dec_node.callable_args.append(CallableArg(
                callee=dec_node, param=dec_node.params[0],
                candidates=(node,), caller_param=None,
                line=fn.node.lineno,
            ))
    # Wrapper-scope calls of the bound parameter become real edges to
    # every decorated function.
    all_nodes = list(model.nodes.values()) + list(model.lambda_nodes)
    for dec_qual, bound in model.decorator_bindings.items():
        dec_node = model.nodes.get(dec_qual)
        if dec_node is None:
            continue
        param = dec_node.params[0]
        prefix = dec_qual + "."
        scoped = [dec_node] + [
            n for n in all_nodes if n.qualname.startswith(prefix)
        ]
        for wrapper in scoped:
            for item in iter_own_statements(wrapper.statements):
                if isinstance(item, ast.Call) and isinstance(
                    item.func, ast.Name
                ) and item.func.id == param:
                    for target in bound:
                        target.in_degree += 1
                        wrapper.calls.append(CallEdge(
                            callee=target, line=item.lineno,
                        ))


def _scan_module_atfork(model: ContextModel) -> None:
    """Module-level ``os.register_at_fork`` registrations.

    Reinit callbacks are conventionally registered at import time
    (often inside a ``hasattr`` guard); the function scanner only sees
    calls inside function bodies, so collect these from module bodies.
    """
    for info in model.project.by_qual.values():
        for item in info.tree.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for sub in ast.walk(item):
                if not isinstance(sub, ast.Call):
                    continue
                if dotted_chain(sub.func, info) != "os.register_at_fork":
                    continue
                for kw in sub.keywords:
                    if kw.arg != "after_in_child" or \
                            not isinstance(kw.value, ast.Name):
                        continue
                    target = model.nodes.get(
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
    for info in model.project.by_qual.values():
        for item in info.tree.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            for sub in ast.walk(item):
                if not isinstance(sub, ast.Call):
                    continue
                name = None
                if isinstance(sub.func, ast.Name):
                    name = sub.func.id
                local = model.nodes.get(f"{info.qualname}.{name}") \
                    if name else None
                if local is not None:
                    local.in_degree += 1
                    _add_ctx(model, local, MAIN,
                             f"called at import time in {info.qualname}")
    for node in model.nodes.values():
        if node.is_async:
            _add_ctx(model, node, LOOP,
                     "async def: its body runs on the event loop")
        elif node.in_degree == 0 and not node.is_spawn_target:
            _add_ctx(model, node, MAIN,
                     "assumed program entry (no in-project caller)")


def _add_ctx(model: ContextModel, node: Node, context: str,
             why: str) -> list[Node]:
    """Add ``context`` to ``node``; returns the nodes to revisit if it
    grew (the node itself and the lambdas it encloses)."""
    bucket = model.ctx.setdefault(node.qualname, set())
    if context in bucket:
        return []
    bucket.add(context)
    model.why.setdefault((node.qualname, context), trim_chain(why))
    return [node, *node.inline_lambdas]


def solve_contexts(model: ContextModel) -> None:
    """Propagate contexts along call/spawn/escape edges to a fixpoint.

    A node is revisited when its own context set grew, when the
    function enclosing it (for a lambda) grew, or when an escape slot
    one of its callable arguments is bound to grew.
    """
    all_nodes = list(model.nodes.values()) + list(model.lambda_nodes)
    holders: dict[tuple[str, str], list[Node]] = {}
    for node in all_nodes:
        for carg in node.callable_args:
            holders.setdefault((carg.callee.qualname, carg.param), []) \
                .append(node)

    def step(node: Node) -> list[Node]:
        dirty: list[Node] = []
        # Lambdas run where their enclosing function runs, unless
        # they only exist to be spawned elsewhere.
        if node.enclosing is not None and not node.is_spawn_target:
            for context in model.contexts(node.enclosing):
                dirty += _add_ctx(
                    model, node, context,
                    f"closure evaluated inline by {node.enclosing.short}"
                    f" ({model.reason(node.enclosing, context)})",
                )
        contexts = model.contexts(node)
        # Escape facts are structural: propagate them regardless of
        # whether anything runs this node yet.
        for carg in node.callable_args:
            escaped = model.escapes.get(
                (carg.callee.qualname, carg.param), set(),
            )
            for context in escaped:
                why = (
                    f"bound to parameter '{carg.param}' of "
                    f"{carg.callee.short} at "
                    f"{node.module.path}:{carg.line}, which "
                    f"{model.why.get((carg.callee.qualname + ':escape', carg.param), 'hands it to an executor')}"
                )
                for cand in carg.candidates:
                    cand.is_spawn_target = True
                    dirty += _add_ctx(model, cand, context, why)
                if carg.caller_param is not None:
                    slot = (node.qualname, carg.caller_param)
                    bucket = model.escapes.setdefault(slot, set())
                    if context not in bucket:
                        bucket.add(context)
                        dirty += holders.get(slot, [])
        if not contexts:
            return dirty
        for spawn in node.spawns:
            dirty += _add_ctx(
                model, spawn.target, spawn.context,
                f"{spawn.how} at {node.module.path}:{spawn.line} "
                f"by {node.short}",
            )
        for edge in node.calls:
            if edge.callee.is_async:
                continue  # seeded with event-loop already
            for context in contexts:
                dirty += _add_ctx(
                    model, edge.callee, context,
                    f"called from {node.short} "
                    f"({model.reason(node, context)})",
                )
        return dirty

    fixpoint.solve(all_nodes, step)


def build_contexts(project: Project) -> ContextModel:
    """Collect nodes/edges and solve execution contexts for a project."""
    model = ContextModel(project=project)
    _collect_types(model)
    _make_nodes(model)
    for node in list(model.nodes.values()):
        _FunctionScanner(model, node).scan()
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
    # fork entries may have been discovered before their Node existed
    seen: set[int] = set()
    unique_entries = []
    for entry in model.fork_entries:
        if id(entry) not in seen:
            seen.add(id(entry))
            unique_entries.append(entry)
    model.fork_entries = unique_entries
    return model

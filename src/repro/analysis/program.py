"""The one program model the whole-program passes share.

One pre-pass over every parsed module builds, once per lint invocation:

* a :class:`Module` per file: its import map, its module-global table
  (every top-level name with the type its constructor call or
  annotation gives), and its ``# repro:`` directives bound to the
  statements that hold them (:func:`bind_directives`);
* a :class:`Class` per class: its methods, its instance attributes with
  their constructor or annotation types, and its field dimension pins;
* a :class:`Function` per ``def`` and per lambda inside one: its own
  AST nodes (nested ``def``/``class`` bodies excluded), its local
  name -> producer table and local types, its parameter and return
  dimension pins, and the call/spawn edges the concurrency pass adds.

:meth:`Program.resolve` is the one call resolver the dimensional,
concurrency and keysound passes use. A name resolves through the
lexical scopes (locals, parameters, nested defs) before the module's own
definitions and imports; imports follow package re-exports, and only
under a project module does a dotted name fall back to the one project
definition with its terminal name. A class call reaches the class
(``__init__`` for the passes that walk bodies). An attribute call
resolves on its receiver's type when one is known, on the module a
module reference names, and otherwise duck-typed, only for a name that
is not a builtin-protocol method and has at most
:data:`MAX_DUCK_CANDIDATES` definitions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from repro.analysis.context import ModuleSource, terminal_name
from repro.analysis.directives import Directive, Directives

#: Pseudo-types for stdlib concurrency objects (values of type tables).
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

#: Cap on duck-typed method resolution: a method name this ambiguous is
#: skipped rather than fanning facts across unrelated classes.
MAX_DUCK_CANDIDATES = 12

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

_PROPERTY_DECORATORS = frozenset({"property", "cached_property"})

#: Bound on the local producer chains one trace or resolution follows.
_TRACE_DEPTH = 6


@dataclass(slots=True)  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class ParamSlot:
    """One formal parameter of a function.

    ``pin`` is the seeded dimension (annotation beats suffix); ``value``
    is the call-site join the dimensional fixpoint accumulates for
    unpinned params.
    """

    name: str
    pin: object
    value: object

    @property
    def dim(self):
        return self.pin if self.pin is not None else self.value


@dataclass(eq=False)  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class Module:
    """One module: imports, module-global table, bound directives."""

    qualname: str
    path: str
    tree: ast.Module
    directives: Directives
    #: local name -> ("module", qualname) or ("symbol", qualname)
    imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: module-global name -> its constructor/annotation type, or None
    globals: dict[str, str | None] = field(default_factory=dict)
    #: module-global name -> element type of an annotated container
    elem_types: dict[str, str] = field(default_factory=dict)
    #: statement -> the directives its lines hold
    attached: dict[ast.stmt, list[Directive]] = field(default_factory=dict)
    #: directives no statement holds
    unattached: list[Directive] = field(default_factory=list)
    #: statement -> ``dim[...]`` pins attached to it
    pins: dict[ast.stmt, dict] = field(default_factory=dict)
    #: (line, message) for malformed or unattached ``dim`` directives
    dim_notes: list[tuple[int, str]] = field(default_factory=list)
    #: module-level constant dims, filled by the dimensional pass
    constants: dict = field(default_factory=dict)

    def held(self, stmt: ast.stmt, *forms: str) -> list[Directive]:
        """Directives of ``forms`` attached to ``stmt``."""
        return [d for d in self.attached.get(stmt, ()) if d.form in forms]


@dataclass(eq=False)  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class Class:
    """One class: methods, instance attributes, field dimension pins."""

    qualname: str
    name: str
    module: Module
    node: ast.ClassDef
    methods: dict[str, "Function"] = field(default_factory=dict)
    #: annotated class-body field -> dimension pin, in declaration order
    fields: dict[str, object] = field(default_factory=dict)
    #: instance attribute -> its constructor/annotation type, or None
    attrs: dict[str, str | None] = field(default_factory=dict)


class CallEdge(NamedTuple):
    """A plain (same-context) call from one function to another."""

    callee: "Function"
    line: int


class SpawnEdge(NamedTuple):
    """A call that moves its target into another execution context."""

    target: "Function"
    context: str
    line: int
    how: str  # e.g. "submitted to a thread executor"


class CallableArg(NamedTuple):
    """A callable bound to a callee parameter (higher-order tracking)."""

    callee: "Function"
    param: str
    candidates: tuple["Function", ...]
    caller_param: str | None  # set when the arg is a param of the caller
    line: int


class Param(NamedTuple):
    """A resolved name that is a parameter of ``owner``."""

    owner: "Function"
    name: str


@dataclass(eq=False, slots=True)  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class Function:
    """One ``def`` or lambda: its own nodes, locals and analysis facts."""

    qualname: str
    module: Module
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    params: list[ParamSlot]
    owner: Class | None = None
    self_name: str | None = None  # bound receiver name
    #: the function whose scope encloses this one (classes skipped)
    parent: "Function | None" = None
    return_pin: object = None
    return_value: object = None
    is_property: bool = False
    #: every AST node of the body, nested def/class bodies excluded
    own: list[ast.AST] = field(default_factory=list)
    #: local name -> (producing expression, zip arm / tuple slot, whether
    #: a ``for`` loop binds it)
    locals: dict[str, tuple[ast.expr, int | None, bool]] = field(
        default_factory=dict,
    )
    #: local name -> constructor/annotation type
    types: dict[str, str] = field(default_factory=dict)
    #: nested defs and classes by name
    children: dict[str, "Function | Class"] = field(default_factory=dict)
    lambdas: list["Function"] = field(default_factory=list)
    # -- concurrency edges, filled by the context build ------------------
    calls: list[CallEdge] = field(default_factory=list)
    spawns: list[SpawnEdge] = field(default_factory=list)
    callable_args: list[CallableArg] = field(default_factory=list)
    in_degree: int = 0
    is_spawn_target: bool = False
    param_names: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.param_names = tuple(slot.name for slot in self.params)

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
    def is_lambda(self) -> bool:
        return isinstance(self.node, ast.Lambda)

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    @property
    def bindable(self) -> list[ParamSlot]:
        """Parameters that call arguments bind to (receiver excluded)."""
        if self.self_name is not None and not self.is_lambda:
            return self.params[1:]
        return self.params

    @property
    def return_dim(self):
        return self.return_pin if self.return_pin is not None \
            else self.return_value

    def scopes(self):
        """This function and the functions lexically enclosing it."""
        scope: Function | None = self
        while scope is not None:
            yield scope
            scope = scope.parent

    def producer(self, name: str) -> ast.expr | None:
        """The expression that produced local ``name``, if one did."""
        produced = self.locals.get(name)
        if produced is None:
            return None
        value, index, _loop = produced
        if index is None:
            return value
        if isinstance(value, ast.Call) and isinstance(
            value.func, ast.Name
        ) and value.func.id == "zip" and index < len(value.args):
            return value.args[index]
        if isinstance(value, (ast.Tuple, ast.List)) and \
                index < len(value.elts):
            return value.elts[index]
        return value

    def trace(self, expr: ast.expr, depth: int = 0) -> ast.expr:
        """The most informative producer expression behind ``expr``.

        Follows plain and tuple-unpacking assignments and ``for a, b in
        zip(xs, ys)`` targets, so ``cache.put(key, record)`` reaches
        the expressions that produced ``key`` and ``record``.
        """
        if depth >= _TRACE_DEPTH:
            return expr
        if isinstance(expr, ast.Name):
            value = self.producer(expr.id)
            if value is None or value is expr:
                return expr
            return self.trace(value, depth + 1)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.trace(expr.elt, depth + 1)
        if isinstance(expr, ast.Starred):
            return self.trace(expr.value, depth + 1)
        return expr


def module_qualname(path: str) -> str:
    """Dotted module name for a file path (``repro.tech.wire``).

    Falls back to the file stem for paths outside the package (test
    files, in-memory snippets).
    """
    parts = list(Path(path).with_suffix("").parts)
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[start:]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)
    stem = Path(path).stem or "snippet"
    return "".join(c if c.isalnum() or c == "_" else "_" for c in stem)


def own_nodes(body: list[ast.AST]) -> list[ast.AST]:
    """Every node of a body, skipping nested defs and classes.

    Lambda bodies are included: a lambda's own nodes are a subset of
    its enclosing function's.
    """
    own: list[ast.AST] = []
    stack: list[ast.AST] = list(body)
    while stack:
        item = stack.pop()
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        own.append(item)
        stack.extend(ast.iter_child_nodes(item))
    return own


def dotted_chain(node: ast.expr, module: Module) -> str | None:
    """Render ``a.b.c`` resolving the head through the import map."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    imported = module.imports.get(cur.id)
    parts.append(imported[1] if imported is not None else cur.id)
    return ".".join(reversed(parts))


def assigned_names(stmt: ast.stmt) -> list[str]:
    """Names an ``Assign``/``AnnAssign`` binds directly."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def bind_directives(
    tree: ast.Module, directives: list[Directive],
) -> tuple[dict[ast.stmt, list[Directive]], list[Directive]]:
    """Attach each directive to the innermost statement holding its line.

    A ``def`` or ``class`` holds only its header lines (up to its first
    body statement); a compound statement holds the lines of its body
    that no inner statement holds. Returns the attachments and the
    directives no statement holds.
    """
    lines = {directive.line for directive in directives}
    holder: dict[int, ast.stmt] = {}
    if lines:
        for stmt in ast.walk(tree):  # breadth-first: inner ones last
            if not isinstance(stmt, ast.stmt):
                continue
            last = stmt.end_lineno or stmt.lineno
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and stmt.body:
                last = max(stmt.lineno, stmt.body[0].lineno - 1)
            for line in lines:
                if stmt.lineno <= line <= last:
                    holder[line] = stmt
    attached: dict[ast.stmt, list[Directive]] = {}
    unattached: list[Directive] = []
    for directive in directives:
        stmt = holder.get(directive.line)
        if stmt is None:
            unattached.append(directive)
        else:
            attached.setdefault(stmt, []).append(directive)
    return attached, unattached


@dataclass(eq=False)  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class Program:
    """Every module, class and function of the linted code base."""

    modules: dict[str, Module] = field(default_factory=dict)  # by path
    by_qual: dict[str, Module] = field(default_factory=dict)
    #: every ``def`` (methods and nested defs included), by qualname
    functions: dict[str, Function] = field(default_factory=dict)
    #: every lambda inside a ``def``, in collection order
    lambdas: list[Function] = field(default_factory=list)
    classes: dict[str, Class] = field(default_factory=dict)
    class_by_name: dict[str, list[Class]] = field(default_factory=dict)
    #: non-method function name -> definitions
    func_by_name: dict[str, list[Function]] = field(default_factory=dict)
    #: method/property name -> definitions, for duck-typed resolution
    attr_funcs: dict[str, list[Function]] = field(default_factory=dict)
    #: annotated field name -> pins across all classes
    attr_fields: dict[str, list] = field(default_factory=dict)
    #: project decorator qualname -> the defs it decorates
    decorated: dict[str, list[Function]] = field(default_factory=dict)
    #: lambda expression -> its record
    lambda_of: dict[ast.Lambda, Function] = field(default_factory=dict)

    @property
    def bodies(self) -> list[Function]:
        """Every function record: defs, then lambdas."""
        return [*self.functions.values(), *self.lambdas]

    # -- resolution ------------------------------------------------------

    def symbol(self, qual: str, depth: int = 0) -> Function | Class | None:
        """The project def or class a dotted name denotes.

        Follows a package's re-export (``repro.array.build_array`` is
        imported into ``repro/array/__init__.py``); under a project
        module, falls back to the one definition with the terminal name.
        """
        found = self.functions.get(qual) or self.classes.get(qual)
        if found is not None:
            return found
        module_qual, _, name = qual.rpartition(".")
        module = self.by_qual.get(module_qual)
        if module is None:
            return None
        imported = module.imports.get(name)
        if imported is not None and imported[0] == "symbol" and \
                depth < _TRACE_DEPTH:
            found = self.symbol(imported[1], depth + 1)
            if found is not None:
                return found
        functions = self.func_by_name.get(name, [])
        if len(functions) == 1:
            return functions[0]
        classes = self.class_by_name.get(name, [])
        return classes[0] if len(classes) == 1 else None

    def module_ref(self, module: Module, expr: ast.expr) -> str | None:
        """Qualname of the module ``expr`` names through an ``import``
        statement (``units``, ``repro.units``), if it names one."""
        if isinstance(expr, ast.Name):
            imported = module.imports.get(expr.id)
            if imported is not None and imported[0] == "module":
                return imported[1]
            return None
        if isinstance(expr, ast.Attribute):
            base = self.module_ref(module, expr.value)
            if base is not None:
                candidate = f"{base}.{expr.attr}"
                if candidate in self.by_qual or base == "repro":
                    return candidate
        return None

    def resolve(
        self, scope: Function | None, module: Module, expr: ast.expr,
        depth: int = 0,
    ) -> list:
        """What a callable expression may denote, in the one set of rules.

        Returns :class:`Function` and :class:`Class` records, plus a
        :class:`Param` marker when a name is a parameter; a decorator's
        first parameter also yields the functions it decorates.
        """
        if depth > _TRACE_DEPTH:
            return []
        if isinstance(expr, ast.Lambda):
            made = self.lambda_of.get(expr)
            return [made] if made is not None else []
        if isinstance(expr, ast.Name):
            return self._resolve_name(scope, module, expr.id, depth)
        if isinstance(expr, ast.Attribute):
            return self._resolve_attribute(scope, module, expr, depth)
        if isinstance(expr, ast.IfExp):
            return self.resolve(scope, module, expr.body, depth + 1) + \
                self.resolve(scope, module, expr.orelse, depth + 1)
        if isinstance(expr, ast.Call) and expr.args:
            # ``functools.partial(fn, ...)`` runs ``fn``.
            chain = dotted_chain(expr.func, module)
            if chain is not None and chain.rsplit(".", 1)[-1] == "partial":
                return self.resolve(scope, module, expr.args[0], depth + 1)
        return []

    def _resolve_name(
        self, scope: Function | None, module: Module, name: str, depth: int,
    ) -> list:
        for fn in scope.scopes() if scope is not None else ():
            # An assigned alias, not a loop variable: those are elements.
            if name in fn.locals and not fn.locals[name][2]:
                found = self.resolve(fn, module, fn.producer(name),
                                     depth + 1)
                if found:
                    return found
            if name in fn.param_names:
                bound = self.decorated.get(fn.qualname, []) \
                    if fn.param_names[0] == name else []
                return [Param(fn, name), *bound]
            if name in fn.children:
                return [fn.children[name]]
        local = f"{module.qualname}.{name}"
        found = self.functions.get(local) or self.classes.get(local)
        if found is None:
            imported = module.imports.get(name)
            if imported is not None and imported[0] == "symbol":
                found = self.symbol(imported[1])
        return [found] if found is not None else []

    def _resolve_attribute(
        self, scope: Function | None, module: Module, expr: ast.Attribute,
        depth: int,
    ) -> list:
        typ = self.instance_type(scope, module, expr.value)
        if typ is None:
            module_qual = self.module_ref(module, expr.value)
            if module_qual is not None:
                found = self.symbol(f"{module_qual}.{expr.attr}")
                return [found] if found is not None else []
            # ``fixpoint.solve`` after ``from repro.analysis import
            # fixpoint``: the dotted name itself.
            chain = dotted_chain(expr, module)
            found = self.functions.get(chain) or self.classes.get(chain)
            if found is not None:
                return [found]
            typ = next((
                target.qualname
                for target in self.resolve(scope, module, expr.value,
                                           depth + 1)
                if isinstance(target, Class)
            ), None)
        cls = self.classes.get(typ) if typ is not None else None
        if cls is not None:
            method = cls.methods.get(expr.attr)
            return [method] if method is not None else []
        if expr.attr in _BUILTIN_COLLISIONS:
            return []
        candidates = self.attr_funcs.get(expr.attr, [])
        return list(candidates) \
            if len(candidates) <= MAX_DUCK_CANDIDATES else []

    # -- types -----------------------------------------------------------

    def instance_type(
        self, scope: Function | None, module: Module, expr: ast.expr,
    ) -> str | None:
        """Class qualname or pseudo-type of the object ``expr`` yields."""
        if isinstance(expr, ast.Name):
            if scope is not None and expr.id == scope.self_name and \
                    scope.owner is not None:
                return scope.owner.qualname
            for fn in scope.scopes() if scope is not None else ():
                if expr.id in fn.types:
                    return fn.types[expr.id]
            return module.globals.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            base = self.instance_type(scope, module, expr.value)
            cls = self.classes.get(base) if base is not None else None
            return cls.attrs.get(expr.attr) if cls is not None else None
        if isinstance(expr, ast.Call):
            return self.ctor_type(scope, module, expr)
        return None

    def ctor_type(
        self, scope: Function | None, module: Module, call: ast.expr,
    ) -> str | None:
        """Type of a constructor-call expression, or None."""
        if not isinstance(call, ast.Call):
            return None
        chain = dotted_chain(call.func, module)
        if chain is None or chain.split(".")[0] in _ASYNC_MODULES:
            return None
        for target in self.resolve(scope, module, call.func):
            if isinstance(target, Class):
                return target.qualname
        return _STDLIB_CTORS.get(chain.rsplit(".", 1)[-1])

    def annotation_classes(self, module: Module, ann: ast.expr) -> list[str]:
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
                    and imported[1] in self.classes:
                found.append(imported[1])
            elif f"{module.qualname}.{name}" in self.classes:
                found.append(f"{module.qualname}.{name}")
            elif name in self.class_by_name:
                found.append(self.class_by_name[name][0].qualname)
        return found


def runs(targets: list) -> list[Function]:
    """The functions a call of the resolved targets runs: a class runs
    its ``__init__``; a parameter runs nothing known."""
    out: list[Function] = []
    for target in targets:
        if isinstance(target, Class):
            target = target.methods.get("__init__")
        if isinstance(target, Function):
            out.append(target)
    return out


# -- construction ----------------------------------------------------------


class _Builder:
    """Collects one :class:`Program` from parsed modules."""

    def __init__(self) -> None:
        # Imported here: the dimensional package imports this module.
        from repro.analysis.dimensional import seeds
        from repro.analysis.dimensional.dim import UNKNOWN

        self.seeds = seeds
        self.unknown = UNKNOWN
        self.program = Program()

    def module(self, source: ModuleSource) -> None:
        program = self.program
        qualname = module_qualname(source.path)
        while qualname in program.by_qual:
            qualname += "_"
        directives = source.directives
        module = Module(qualname=qualname, path=source.path,
                        tree=source.tree, directives=directives)
        module.attached, module.unattached = bind_directives(
            source.tree,
            [d for d in directives.entries if d.form != "noqa"],
        )
        table = self.seeds.dim_table(directives)
        module.dim_notes = list(table.errors)
        for stmt, held in module.attached.items():
            for directive in held:
                if directive.form == "dim":
                    module.pins.setdefault(stmt, {}).update(
                        table.by_line.get(directive.line, {}),
                    )
        module.dim_notes += [
            (d.line, f"dim[{d.body}] is not attached to a statement or "
                     "definition")
            for d in module.unattached if d.form == "dim"
        ]
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        module.imports[alias.asname] = ("module", alias.name)
                    else:
                        head = alias.name.split(".")[0]
                        module.imports[head] = ("module", head)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    if alias.name != "*":
                        module.imports[alias.asname or alias.name] = (
                            "symbol", f"{node.module or ''}.{alias.name}",
                        )
        for stmt in source.tree.body:
            for name in assigned_names(stmt):
                module.globals.setdefault(name, None)
        program.modules[source.path] = module
        program.by_qual[qualname] = module
        self.body(module, source.tree.body, None, None, qualname)

    def body(self, module: Module, body: list[ast.stmt], owner: Class | None,
             parent: Function | None, prefix: str) -> None:
        program = self.program
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = self.function(module, stmt, owner, parent, prefix)
                if owner is not None:
                    owner.methods[stmt.name] = fn
                    program.attr_funcs.setdefault(stmt.name, []).append(fn)
                else:
                    program.func_by_name.setdefault(stmt.name, []).append(fn)
                    if parent is not None:
                        parent.children[stmt.name] = fn
                # Nested defs become plain functions; the receiver
                # context does not propagate into them.
                self.body(module, stmt.body, None, fn, fn.qualname)
            elif isinstance(stmt, ast.ClassDef):
                cls = Class(
                    qualname=f"{prefix}.{stmt.name}", name=stmt.name,
                    module=module, node=stmt,
                )
                program.classes[cls.qualname] = cls
                program.class_by_name.setdefault(stmt.name, []).append(cls)
                if parent is not None and owner is None:
                    parent.children[stmt.name] = cls
                for inner in stmt.body:
                    if isinstance(inner, ast.AnnAssign) and isinstance(
                        inner.target, ast.Name
                    ):
                        name = inner.target.id
                        pin = module.pins.get(inner, {}).get(name) or \
                            self.seeds.suffix_dim(name)
                        cls.fields[name] = pin
                        cls.attrs[name] = None
                        program.attr_fields.setdefault(name, []).append(pin)
                self.body(module, stmt.body, cls, parent, cls.qualname)

    def function(self, module: Module, node: ast.FunctionDef |
                 ast.AsyncFunctionDef, owner: Class | None,
                 parent: Function | None, prefix: str) -> Function:
        pins = module.pins.get(node, {})
        decorators = {
            terminal_name(dec.func if isinstance(dec, ast.Call) else dec)
            for dec in node.decorator_list
        }
        args = node.args
        formals = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        self_name = None
        if owner is not None and formals and not (
            {"staticmethod", "classmethod"} & decorators
        ):
            self_name = formals[0].arg
        fn = Function(
            qualname=f"{prefix}.{node.name}", module=module, node=node,
            params=[
                ParamSlot(a.arg, pins.get(a.arg) or
                          self.seeds.suffix_dim(a.arg), self.unknown)
                for a in formals
            ],
            owner=owner, self_name=self_name, parent=parent,
            return_pin=pins.get("return") or self.seeds.suffix_dim(node.name),
            return_value=self.unknown,
            is_property=bool(_PROPERTY_DECORATORS & decorators),
            own=own_nodes(node.body),
        )
        self.program.functions[fn.qualname] = fn
        return fn

    def lambdas_and_locals(self, fn: Function) -> None:
        """Number the def's lambdas and fill its producer table."""
        for item in fn.own:
            if isinstance(item, ast.Lambda):
                args = item.args
                made = Function(
                    qualname=(f"{fn.qualname}.<lambda:{item.lineno}:"
                              f"{len(fn.lambdas) + 1}>"),
                    module=fn.module, node=item,
                    params=[
                        ParamSlot(a.arg, None, self.unknown) for a in
                        [*args.posonlyargs, *args.args, *args.kwonlyargs]
                    ],
                    owner=fn.owner, self_name=fn.self_name, parent=fn,
                    own=own_nodes([item.body]),
                )
                fn.lambdas.append(made)
                self.program.lambdas.append(made)
                self.program.lambda_of[item] = made
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    _note(fn.locals, target, item.value, False)
            elif isinstance(item, ast.AnnAssign) and item.value is not None:
                _note(fn.locals, item.target, item.value, False)
            elif isinstance(item, ast.For):
                # ``for key, rec in zip(keys, records)``: position
                # selects the zip arm.
                _note(fn.locals, item.target, item.iter, True)

    def types(self) -> None:
        """Module-global, instance-attribute and local type tables."""
        program = self.program
        for module in program.modules.values():
            for stmt in module.tree.body:
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    continue
                ann = getattr(stmt, "annotation", None)
                for name in assigned_names(stmt):
                    typ = program.ctor_type(None, module, stmt.value)
                    if typ is not None:
                        module.globals[name] = typ
                    if ann is None:
                        continue
                    # list["Memo"]-style element types for containers.
                    if isinstance(ann, ast.Subscript):
                        elems = program.annotation_classes(module, ann.slice)
                        if elems:
                            module.elem_types[name] = elems[0]
                    classes = program.annotation_classes(module, ann)
                    if classes and module.globals[name] is None:
                        module.globals[name] = classes[0]
        for cls in program.classes.values():
            for method in cls.methods.values():
                if method.self_name is None:
                    continue
                for stmt in method.own:
                    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                        continue
                    targets = stmt.targets if isinstance(stmt, ast.Assign) \
                        else [stmt.target]
                    for target in targets:
                        if isinstance(target, ast.Attribute) and isinstance(
                            target.value, ast.Name
                        ) and target.value.id == method.self_name:
                            typ = program.ctor_type(method, cls.module,
                                                    stmt.value)
                            if cls.attrs.get(target.attr) is None:
                                cls.attrs[target.attr] = typ
            # Annotated constructor params often document field types
            # (``cache: EvalCache | None``); fold __init__ annotations in.
            init = cls.methods.get("__init__")
            if init is None:
                continue
            args = init.node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if arg.annotation is None:
                    continue
                classes = program.annotation_classes(cls.module,
                                                     arg.annotation)
                if classes and cls.attrs.get(arg.arg) is None:
                    cls.attrs[arg.arg] = classes[0]
        for fn in program.functions.values():
            self.local_types(fn)

    def local_types(self, fn: Function) -> None:
        program = self.program
        module = fn.module
        for item in fn.own:
            if isinstance(item, ast.Assign) and len(item.targets) == 1 \
                    and isinstance(item.targets[0], ast.Name):
                typ = program.instance_type(fn, module, item.value)
                if typ is not None:
                    fn.types[item.targets[0].id] = typ
            elif isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                classes = program.annotation_classes(module, item.annotation)
                if classes:
                    fn.types[item.target.id] = classes[0]
            elif isinstance(item, ast.With):
                for w in item.items:
                    if isinstance(w.optional_vars, ast.Name):
                        typ = program.instance_type(fn, module,
                                                    w.context_expr)
                        if typ is not None:
                            fn.types[w.optional_vars.id] = typ
            elif isinstance(item, ast.For) and isinstance(
                item.target, ast.Name
            ) and isinstance(item.iter, ast.Name):
                elem = module.elem_types.get(item.iter.id)
                if elem is not None:
                    fn.types[item.target.id] = elem

    def decorators(self) -> None:
        """Bind each def to the project decorators that wrap it."""
        program = self.program
        for fn in program.functions.values():
            for dec in fn.node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                for wrapper in program.resolve(fn.parent, fn.module, target):
                    if isinstance(wrapper, Function) and wrapper.params:
                        program.decorated.setdefault(
                            wrapper.qualname, [],
                        ).append(fn)
                        break


def _note(table: dict, target: ast.expr, value: ast.expr,
          loop: bool) -> None:
    if isinstance(target, ast.Name):
        table.setdefault(target.id, (value, None, loop))
    elif isinstance(target, (ast.Tuple, ast.List)):
        for index, element in enumerate(target.elts):
            if isinstance(element, ast.Name):
                table.setdefault(element.id, (value, index, loop))


def build_program(modules: list[ModuleSource]) -> Program:
    """Collect the one program model from every parsed module."""
    builder = _Builder()
    seen: set[int] = set()
    for source in modules:
        if id(source) not in seen:
            seen.add(id(source))
            builder.module(source)
    for fn in list(builder.program.functions.values()):
        builder.lambdas_and_locals(fn)
    builder.types()
    builder.decorators()
    return builder.program

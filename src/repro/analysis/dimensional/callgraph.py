"""Project-wide symbol collection for the dimensional analysis.

One cheap pre-pass over every parsed module builds the structures the
inference engine consumes: every function/method definition with its
parameter and return *pins* (suffix- or annotation-derived dimensions),
every class with its field pins, per-module import maps for call
resolution, and name-indexed views used for duck-typed attribute
resolution when the receiver's class is statically unknown.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.context import ModuleSource
from repro.analysis.dimensional.dim import UNKNOWN, Dim, DimValue
from repro.analysis.dimensional.seeds import (
    CONSTANT_DIMS,
    DimComments,
    dim_table,
    suffix_dim,
)
from repro.analysis.directives import Directives


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class ParamSlot:
    """One formal parameter of a collected function.

    ``pin`` is the seeded dimension (annotation beats suffix); ``value``
    is the call-site join the fixpoint accumulates for unpinned params.
    """

    name: str
    pin: Dim | None
    value: DimValue = UNKNOWN

    @property
    def dim(self) -> DimValue:
        return self.pin if self.pin is not None else self.value


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class FunctionInfo:
    """One function/method definition and its evolving dimension facts."""

    qualname: str
    module_qual: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[ParamSlot]
    return_pin: Dim | None
    self_name: str | None = None  # bound receiver name for methods
    class_qual: str | None = None
    is_property: bool = False
    return_value: DimValue = UNKNOWN

    @property
    def return_dim(self) -> DimValue:
        return self.return_pin if self.return_pin is not None \
            else self.return_value

    @property
    def bindable(self) -> list[ParamSlot]:
        """Parameters that call arguments bind to (receiver excluded)."""
        if self.self_name is not None:
            return self.params[1:]
        return self.params


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class ClassInfo:
    """One class definition: field pins plus its methods by name."""

    qualname: str
    name: str
    module_qual: str
    fields: dict[str, Dim | None] = field(default_factory=dict)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class ModuleInfo:
    """One module's contribution to the project tables."""

    qualname: str
    path: str
    tree: ast.Module
    directives: Directives
    comments: DimComments
    # local name -> ("module", qualname) or ("symbol", qualname)
    imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    # module-level constant dims, filled by the engine's constant pass
    constants: dict[str, DimValue] = field(default_factory=dict)


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class Project:
    """Everything the inference engine knows about the code base."""

    modules: dict[str, ModuleInfo] = field(default_factory=dict)  # by path
    by_qual: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    class_by_name: dict[str, list[ClassInfo]] = field(default_factory=dict)
    #: method/property name -> definitions, for duck-typed resolution
    attr_funcs: dict[str, list[FunctionInfo]] = field(default_factory=dict)
    #: field name -> pins across all classes
    attr_fields: dict[str, list[Dim | None]] = field(default_factory=dict)
    #: module-level function name -> definitions
    func_by_name: dict[str, list[FunctionInfo]] = field(default_factory=dict)

    def constant_dim(self, module_qual: str, name: str) -> DimValue | None:
        """Dim of ``module_qual.name`` if it is a known module constant."""
        if module_qual == "repro.units" and name in CONSTANT_DIMS:
            return CONSTANT_DIMS[name]
        info = self.by_qual.get(module_qual)
        if info is not None and name in info.constants:
            return info.constants[name]
        return None


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


_PROPERTY_DECORATORS = frozenset({"property", "cached_property"})


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _signature_pins(
    node: ast.FunctionDef | ast.AsyncFunctionDef, comments: DimComments
) -> dict[str, Dim]:
    """dim[] annotations attached to a def's signature lines."""
    last = node.body[0].lineno - 1 if node.body else node.lineno
    return comments.in_range(node.lineno, max(node.lineno, last))


def _collect_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    module: ModuleInfo,
    owner: ClassInfo | None,
    qual_prefix: str,
) -> FunctionInfo:
    pins = _signature_pins(node, module.comments)
    decorators = _decorator_names(node)
    args = node.args
    formals = [*args.posonlyargs, *args.args, *args.kwonlyargs]
    params = []
    for arg in formals:
        pin = pins.get(arg.arg)
        if pin is None:
            pin = suffix_dim(arg.arg)
        params.append(ParamSlot(name=arg.arg, pin=pin))
    self_name = None
    if owner is not None and formals and not (
        {"staticmethod", "classmethod"} & decorators
    ):
        self_name = formals[0].arg
    return_pin = pins.get("return")
    if return_pin is None:
        return_pin = suffix_dim(node.name)
    return FunctionInfo(
        qualname=f"{qual_prefix}.{node.name}",
        module_qual=module.qualname,
        node=node,
        params=params,
        return_pin=return_pin,
        self_name=self_name,
        class_qual=owner.qualname if owner is not None else None,
        is_property=bool(_PROPERTY_DECORATORS & decorators),
    )


def _collect_imports(tree: ast.Module, imports: dict[str, tuple[str, str]]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = ("module", alias.name)
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = ("module", head)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            base = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = ("symbol", f"{base}.{alias.name}")


def _register_function(project: Project, info: FunctionInfo) -> None:
    project.functions[info.qualname] = info
    terminal = info.node.name
    if info.class_qual is None:
        project.func_by_name.setdefault(terminal, []).append(info)
    else:
        project.attr_funcs.setdefault(terminal, []).append(info)


def _collect_body(
    project: Project,
    module: ModuleInfo,
    body: list[ast.stmt],
    owner: ClassInfo | None,
    qual_prefix: str,
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info = _collect_function(stmt, module, owner, qual_prefix)
            if owner is not None:
                owner.methods[stmt.name] = info
            _register_function(project, info)
            # Nested defs become plain functions; the receiver context
            # does not propagate into them.
            _collect_body(project, module, stmt.body, None, info.qualname)
        elif isinstance(stmt, ast.ClassDef):
            cls = ClassInfo(
                qualname=f"{qual_prefix}.{stmt.name}",
                name=stmt.name,
                module_qual=module.qualname,
            )
            project.classes[cls.qualname] = cls
            project.class_by_name.setdefault(stmt.name, []).append(cls)
            for inner in stmt.body:
                if isinstance(inner, ast.AnnAssign) and isinstance(
                    inner.target, ast.Name
                ):
                    name = inner.target.id
                    line_pins = module.comments.in_range(
                        inner.lineno, inner.end_lineno or inner.lineno
                    )
                    pin = line_pins.get(name) or suffix_dim(name)
                    cls.fields[name] = pin
                    project.attr_fields.setdefault(name, []).append(pin)
            _collect_body(project, module, stmt.body, cls, cls.qualname)


def build_project(modules: list[ModuleSource]) -> Project:
    """Collect symbols from every parsed module."""
    project = Project()
    seen_ids: set[int] = set()
    for source in modules:
        if id(source) in seen_ids:
            continue
        seen_ids.add(id(source))
        qualname = module_qualname(source.path)
        while qualname in project.by_qual:
            qualname += "_"
        info = ModuleInfo(
            qualname=qualname,
            path=source.path,
            tree=source.tree,
            directives=source.directives,
            comments=dim_table(source.directives),
        )
        _collect_imports(source.tree, info.imports)
        project.modules[source.path] = info
        project.by_qual[qualname] = info
        _collect_body(project, info, source.tree.body, None, qualname)
    return project

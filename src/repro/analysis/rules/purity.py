"""Cache-purity rules (CP001-CP003).

PR 2's fast path made correctness rest on three unwritten invariants:
memoized functions must key on hashable/frozen values, must be pure, and
their (shared) results must never be mutated by callers. These rules
make the invariants machine-checked.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import (
    MUTATING_METHODS,
    ModuleSource,
    ProjectIndex,
    terminal_name,
)
from repro.analysis.finding import Finding

#: Type names that are mutable and therefore never valid as memo-key
#: parameter annotations.
MUTABLE_TYPE_NAMES = frozenset({
    "list", "dict", "set", "bytearray",
    "List", "Dict", "Set", "DefaultDict", "OrderedDict", "Counter",
    "MutableMapping", "MutableSequence", "MutableSet",
})

def _annotation_names(node: ast.expr) -> Iterator[str]:
    """Every bare name mentioned in an annotation expression."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name):
            yield inner.id
        elif isinstance(inner, ast.Attribute):
            yield inner.attr
        elif isinstance(inner, ast.Constant) and isinstance(inner.value, str):
            # String annotation: parse it so quoted forms are covered too.
            try:
                parsed = ast.parse(inner.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed.body)


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call):
        return terminal_name(node.func) in {"list", "dict", "set", "bytearray"}
    return False


def _memoized_functions(
    module: ModuleSource, index: ProjectIndex
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(module.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in index.memoized_defs:
                yield node


def check_cp001(
    module: ModuleSource, index: ProjectIndex
) -> Iterator[Finding]:
    """CP001: memoized functions must take hashable/frozen parameters."""
    for func in _memoized_functions(module, index):
        args = list(func.args.posonlyargs) + list(func.args.args) + list(
            func.args.kwonlyargs
        )
        for arg in args:
            if arg.arg in ("self", "cls") or arg.annotation is None:
                continue
            mutable = set(_annotation_names(arg.annotation)) & (
                MUTABLE_TYPE_NAMES
            )
            if mutable:
                yield Finding(
                    module.path, arg.lineno, arg.col_offset, "CP001",
                    f"parameter {arg.arg!r} of memoized function "
                    f"{func.name!r} is annotated with mutable type "
                    f"{sorted(mutable)[0]!r}; memo keys must be "
                    "hashable/frozen (use tuple / frozenset / a frozen "
                    "dataclass)",
                )
        defaults = list(func.args.defaults) + [
            d for d in func.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_literal(default):
                yield Finding(
                    module.path, default.lineno, default.col_offset,
                    "CP001",
                    f"memoized function {func.name!r} has a mutable "
                    "default argument; memo keys must be hashable/frozen",
                )


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = list(func.args.posonlyargs) + list(func.args.args) + list(
        func.args.kwonlyargs
    )
    names = {a.arg for a in args} - {"cls"}
    if func.args.vararg is not None:
        names.add(func.args.vararg.arg)
    if func.args.kwarg is not None:
        names.add(func.args.kwarg.arg)
    return names


def _root_name(node: ast.expr) -> str | None:
    """Leftmost name of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def check_cp002(
    module: ModuleSource, index: ProjectIndex
) -> Iterator[Finding]:
    """CP002: memoized functions must not write globals or mutate args."""
    for func in _memoized_functions(module, index):
        params = _param_names(func)
        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else (
                    "nonlocal"
                )
                yield Finding(
                    module.path, node.lineno, node.col_offset, "CP002",
                    f"memoized function {func.name!r} declares "
                    f"{kind} {', '.join(node.names)}; memoized code "
                    "must be pure",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if not isinstance(
                        target, (ast.Attribute, ast.Subscript)
                    ):
                        continue
                    root = _root_name(target)
                    if root in params and root != "self":
                        yield Finding(
                            module.path, target.lineno,
                            target.col_offset, "CP002",
                            f"memoized function {func.name!r} writes to "
                            f"its argument {root!r}; memoized code must "
                            "not mutate inputs",
                        )
            elif isinstance(node, ast.Call):
                if not isinstance(node.func, ast.Attribute):
                    continue
                if node.func.attr not in MUTATING_METHODS:
                    continue
                root = _root_name(node.func.value)
                if root in params and root != "self":
                    yield Finding(
                        module.path, node.lineno, node.col_offset,
                        "CP002",
                        f"memoized function {func.name!r} calls "
                        f"mutating method .{node.func.attr}() on its "
                        f"argument {root!r}",
                    )


class _ReturnMutationVisitor(ast.NodeVisitor):
    """Tracks names bound to memoized results within one scope."""

    def __init__(
        self, module: ModuleSource, memoized: set[str]
    ) -> None:
        self.module = module
        self.memoized = memoized
        self.findings: list[Finding] = []
        self._aliases: set[str] = set()

    # -- scope handling ------------------------------------------------

    def _visit_scope(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        """Aliases are tracked per function scope, not across scopes."""
        saved = self._aliases
        self._aliases = set()
        self.generic_visit(node)
        self._aliases = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    # -- alias creation / cancellation ---------------------------------

    def _is_memoized_value(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Call):
            return terminal_name(node.func) in self.memoized
        if isinstance(node, ast.Attribute):
            # cached_property wrappers: ``gate.constants``.
            return node.attr in self.memoized
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if self._is_memoized_value(node.value):
                    self._aliases.add(target.id)
                else:
                    self._aliases.discard(target.id)
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                self._flag_target(target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if self._is_memoized_value(node.value):
                self._aliases.add(node.target.id)
            else:
                self._aliases.discard(node.target.id)
        elif isinstance(node.target, (ast.Attribute, ast.Subscript)):
            self._flag_target(node.target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, (ast.Attribute, ast.Subscript)):
            self._flag_target(node.target)
        self.generic_visit(node)

    # -- mutation detection --------------------------------------------

    def _flag_target(self, target: ast.expr) -> None:
        """Assignment into an attribute/item of a memoized result."""
        assert isinstance(target, (ast.Attribute, ast.Subscript))
        base = target.value
        root = _root_name(target)
        if self._is_memoized_value(base):
            label = terminal_name(base.func) if isinstance(base, ast.Call) \
                else base.attr if isinstance(base, ast.Attribute) else "?"
            self.findings.append(Finding(
                self.module.path, target.lineno, target.col_offset,
                "CP003",
                f"writes into the result of memoized {label!r}; "
                "memoized results are shared process-wide and must be "
                "treated as immutable (copy first)",
            ))
        elif root in self._aliases:
            self.findings.append(Finding(
                self.module.path, target.lineno, target.col_offset,
                "CP003",
                f"writes into {root!r}, which aliases a memoized "
                "result; memoized results are shared process-wide and "
                "must be treated as immutable (copy first)",
            ))

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and (
            node.func.attr in MUTATING_METHODS
        ):
            receiver = node.func.value
            root = _root_name(receiver)
            if self._is_memoized_value(receiver):
                self.findings.append(Finding(
                    self.module.path, node.lineno, node.col_offset,
                    "CP003",
                    f"calls mutating method .{node.func.attr}() on the "
                    "result of a memoized callable; memoized results "
                    "are shared process-wide",
                ))
            elif root in self._aliases and isinstance(
                receiver, (ast.Name, ast.Attribute, ast.Subscript)
            ):
                self.findings.append(Finding(
                    self.module.path, node.lineno, node.col_offset,
                    "CP003",
                    f"calls mutating method .{node.func.attr}() on "
                    f"{root!r}, which aliases a memoized result",
                ))
        self.generic_visit(node)


def check_cp003(
    module: ModuleSource, index: ProjectIndex
) -> Iterator[Finding]:
    """CP003: call sites must not mutate memoized results."""
    memoized = set(index.memoized_callables)
    if not memoized:
        return
    visitor = _ReturnMutationVisitor(module, memoized)
    visitor.visit(module.tree)
    yield from visitor.findings

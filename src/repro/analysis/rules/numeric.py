"""Numeric-hygiene rules (NUM001-NUM003).

Analytic power/area/timing models live and die on numerically honest
code: exact float comparisons silently break under reordering or
fast-path refactors, divisions by unvalidated parameters turn into
``ZeroDivisionError`` deep inside a sweep, and mutable defaults leak
state between evaluations.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleSource, ProjectIndex, terminal_name
from repro.analysis.finding import Finding

#: Callables whose presence (as a statement-level call taking the
#: parameter) counts as validating that parameter — the shared
#: ``_check_width(width)`` idiom.
_DIV_OPS = (ast.Div, ast.FloorDiv, ast.Mod)


def check_num001(
    module: ModuleSource, index: ProjectIndex
) -> Iterator[Finding]:
    """NUM001: no ``==`` / ``!=`` against float literals."""
    del index
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            continue
        sides = [node.left, *node.comparators]
        for side in sides:
            if isinstance(side, ast.Constant) and type(side.value) is float:
                yield Finding(
                    module.path, node.lineno, node.col_offset, "NUM001",
                    f"float equality against literal {side.value!r}; "
                    "use math.isclose / pytest.approx, or rewrite the "
                    "sentinel as an ordered comparison",
                )
                break


def _guarded_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str] | None:
    """Parameter names that some statement in ``func`` validates.

    Returns ``None`` when the whole function should be skipped (it
    contains a ``try`` block, i.e. handles its own numeric errors).
    Recognized guards:

    * the name appears in an ``if`` / ``while`` / ``assert`` /
      conditional-expression test (range checks, early returns);
    * the name is an argument of a statement-level call — the
      validation-helper idiom (``_check_width(width)``).
    """
    guarded: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Try):
            return None
        tests: list[ast.expr] = []
        if isinstance(node, (ast.If, ast.While, ast.Assert)):
            tests.append(node.test)
        elif isinstance(node, ast.IfExp):
            tests.append(node.test)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            tests.extend(node.value.args)
        for test in tests:
            for name in ast.walk(test):
                if isinstance(name, ast.Name):
                    guarded.add(name.id)
    return guarded


#: Annotation names marking a parameter as non-numeric: ``/`` on these
#: is an overload (pathlib joining), not arithmetic.
_NON_NUMERIC_TYPES = frozenset(
    {"str", "bytes", "Path", "PurePath", "PurePosixPath", "PureWindowsPath"}
)


def _non_numeric_params(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Parameters that are demonstrably not numbers.

    A string/path annotation or a string default means ``/`` involving
    the parameter is path joining or plain nonsense either way — not a
    division that can hit zero.
    """
    skip: set[str] = set()
    positional = list(func.args.posonlyargs) + list(func.args.args)
    pairs = list(zip(reversed(positional), reversed(func.args.defaults)))
    pairs += [
        (a, d)
        for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults)
        if d is not None
    ]
    for arg, default in pairs:
        if isinstance(default, ast.Constant) and isinstance(
            default.value, (str, bytes)
        ):
            skip.add(arg.arg)
    for arg in positional + list(func.args.kwonlyargs):
        ann = arg.annotation
        name = None
        if isinstance(ann, ast.Name):
            name = ann.id
        elif isinstance(ann, ast.Attribute):
            name = ann.attr
        elif isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            name = ann.value.split(".")[-1]
        if name in _NON_NUMERIC_TYPES:
            skip.add(arg.arg)
    return skip


def check_num002(
    module: ModuleSource, index: ProjectIndex
) -> Iterator[Finding]:
    """NUM002: divisions by a bare, unvalidated parameter."""
    del index
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {
            a.arg
            for a in (
                list(func.args.posonlyargs)
                + list(func.args.args)
                + list(func.args.kwonlyargs)
            )
            if a.arg not in ("self", "cls")
        }
        params -= _non_numeric_params(func)
        if not params:
            continue
        guarded = _guarded_names(func)
        if guarded is None:
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, _DIV_OPS):
                continue
            right = node.right
            if not isinstance(right, ast.Name):
                continue
            if right.id in params and right.id not in guarded:
                yield Finding(
                    module.path, node.lineno, node.col_offset, "NUM002",
                    f"division by parameter {right.id!r} in "
                    f"{func.name!r} without a validation guard; check "
                    "the parameter (raise ValueError) before dividing",
                )


def check_num003(
    module: ModuleSource, index: ProjectIndex
) -> Iterator[Finding]:
    """NUM003: mutable default argument values."""
    del index
    for func in ast.walk(module.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(func.args.defaults) + [
            d for d in func.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and terminal_name(default.func)
                in {"list", "dict", "set", "bytearray"}
            )
            if mutable:
                yield Finding(
                    module.path, default.lineno, default.col_offset,
                    "NUM003",
                    f"mutable default argument in {func.name!r}; "
                    "default to None (or a frozen/tuple form) and build "
                    "the mutable value inside the function",
                )

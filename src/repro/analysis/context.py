"""Parsed-module container and the project-wide memoization index.

The cache-purity rules need cross-file knowledge: ``tests/`` call sites
mutating the return of ``build_array`` can only be flagged if the linter
knows ``build_array`` (defined in ``repro.array``) is memoized. The
:class:`ProjectIndex` is that knowledge, built in a cheap pre-pass over
every module before any rule runs.

A function is considered *memoized* when its body calls
``<memo>.get_or_compute(...)`` (the :class:`repro.fastpath.Memo`
protocol) or builds a cache key through one of
:data:`KEY_FUNCTIONS`. The compute callback handed to ``get_or_compute`` is
memoized by extension: its return value is the object the memo shares.

The module also holds the AST vocabulary every pass shares:
:func:`terminal_name` and :data:`MUTATING_METHODS`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property

from repro.analysis.directives import Directives, scan_directives

#: Every function through which a content-hash cache key is derived
#: (``config_keys`` is the engine's one-encoding pair of
#: ``config_key`` and ``chip_key``; ``chip_key`` keys the chip parts
#: and the compiled batch groups). A call to one marks the enclosing
#: function as part of the cache contract (CP002); each is a root that
#: must itself be deterministic (DET001).
KEY_FUNCTIONS = frozenset({
    "stable_hash", "config_key", "config_keys", "chip_key",
})

#: Container/object methods that mutate their receiver in place.
MUTATING_METHODS: frozenset[str] = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "move_to_end", "sort",
    "reverse", "appendleft", "popleft", "__setitem__", "__delitem__",
})


@dataclass(frozen=True)
class ModuleSource:
    """One parsed Python module."""

    path: str
    source: str
    tree: ast.Module

    @cached_property
    def directives(self) -> Directives:
        """The module's ``# repro:`` comment table, scanned on first use.

        Every pass of a lint reads this one table (see
        :mod:`repro.analysis.registry`).
        """
        return scan_directives(self.source)


def terminal_name(node: ast.expr) -> str | None:
    """Terminal identifier of an expression (``a.b.c`` -> ``c``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _compute_target(node: ast.expr) -> str | None:
    """Name of the compute callback passed to ``get_or_compute``.

    Handles the three idioms in the tree: a bare function reference, a
    bound-method reference (``self._solve``), and a zero-arg lambda
    closing over the arguments (``lambda: _solve(a, b)``).
    """
    if isinstance(node, (ast.Name, ast.Attribute)):
        return terminal_name(node)
    if isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call):
        return terminal_name(node.body.func)
    return None


@dataclass(frozen=True)
class ProjectIndex:
    """Cross-module facts the purity rules consume.

    Frozen bindings; the sets themselves are filled during
    :meth:`scan` and read-only afterwards.

    Attributes:
        memoized_defs: Names of function definitions whose bodies are
            subject to the purity contract (memo wrappers, compute
            callbacks, and key-building functions).
        memoized_callables: Names whose call (or attribute-access, for
            ``cached_property`` wrappers) results are shared memo
            entries and must not be mutated by callers.
    """

    memoized_defs: set[str] = field(default_factory=set)
    memoized_callables: set[str] = field(default_factory=set)

    def scan(self, module: ModuleSource) -> None:
        """Fold one module's memoization facts into the index."""
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                name = terminal_name(inner.func)
                if name == "get_or_compute":
                    self.memoized_defs.add(node.name)
                    self.memoized_callables.add(node.name)
                    if len(inner.args) >= 2:
                        target = _compute_target(inner.args[1])
                        if target is not None:
                            self.memoized_defs.add(target)
                elif name in KEY_FUNCTIONS and node.name not in KEY_FUNCTIONS:
                    # Builds a content-hash key: part of the cache
                    # contract even if the memo lives elsewhere.
                    self.memoized_defs.add(node.name)


def build_index(modules: list[ModuleSource]) -> ProjectIndex:
    """Pre-pass: collect memoization facts across ``modules``."""
    index = ProjectIndex()
    for module in modules:
        index.scan(module)
    return index

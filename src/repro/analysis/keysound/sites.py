"""Memoization-site discovery for the cache-key soundness pass.

A *site* is one place a computation's result is stored under a key:

* ``<memo>.get_or_compute(key, compute)`` — the :class:`repro.fastpath
  .Memo` protocol used by the array/gate/repeater/batch/serve layers;
* ``functools.lru_cache`` / ``functools.cache`` decorated defs — the
  parameters *are* the key;
* ``<cache>.put(key, value)`` — the persistent ``EvalCache`` admission
  sites in the evaluation engine, and the stores of a value a caller
  computed after a ``Memo.lookup`` missed.

For each site the scanner resolves the *key component names* (which
identifiers flow into the key expression, tracing locals through the
enclosing function's producer table: assignments and ``zip`` loop
targets) and the *compute entry functions* (which functions produce
the cached value). Computes resolve through the one resolver of the
program model (:meth:`repro.analysis.program.Program.resolve`):
lambdas, bound methods, ``functools.partial``, package re-exports,
nested helpers, class constructors, and decorator-bound closure
parameters.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.concurrency.contexts import outside_lambdas
from repro.analysis.context import KEY_FUNCTIONS, terminal_name
from repro.analysis.program import Function, Program, runs

#: Decorator terminals that memoize the decorated def on its arguments.
LRU_DECORATORS: frozenset[str] = frozenset({
    "lru_cache", "cache", "cached_property",
})

#: Names that appear in key expressions but are derivation machinery,
#: never key *data*.
_KEY_MACHINERY: frozenset[str] = KEY_FUNCTIONS | frozenset({
    "sorted", "tuple", "frozenset", "str", "repr", "len", "asdict",
    "astuple", "dict", "hash", "id", "type", "isinstance", "min", "max",
    "round", "zip", "enumerate", "range",
})


@dataclass  # repro: noqa[SPEC001] -- declarations bind in post-pass
class MemoSite:
    """One memoization site and everything the rules need about it."""

    kind: str  # "memo" | "lru" | "cache-put"
    path: str
    line: int
    end_line: int
    node: Function  # the enclosing function (the compute for "lru")
    cache_name: str  # display, e.g. "_OPTIMUM_MEMO.get_or_compute"
    key_names: frozenset[str]
    key_value_names: frozenset[str]  # plain-name subset, for KEY002
    key_opaque: bool
    compute: tuple[Function, ...]
    keyed_by: set[str] = field(default_factory=set)
    exempt: dict[str, str] = field(default_factory=dict)


def key_component_names(
    expr: ast.expr,
) -> tuple[frozenset[str], frozenset[str]]:
    """Identifier components of a key expression.

    Returns ``(all_names, value_names)``. ``all_names`` is every
    contributing identifier — loaded names plus attribute terminals,
    excluding callable heads (``stable_hash(...)`` contributes its
    arguments, not its own name) and derivation machinery — and feeds
    the KEY001 coverage check. ``value_names`` is the plain-name
    subset: names not reached through an attribute projection like
    ``record.key``, for which absence from the compute's mention set
    is a meaningful never-read test (KEY002). An attribute projection
    routinely stands in for a value the compute reads under another
    name (``record.key`` *is* ``config_key(config)``), so projections
    are exempt from the over-keying check.
    """
    heads: set[int] = set()
    in_attribute: set[int] = set()
    for item in ast.walk(expr):
        if isinstance(item, ast.Call):
            target = item.func
            while isinstance(target, ast.Attribute):
                heads.add(id(target))
                target = target.value
            heads.add(id(target))
        elif isinstance(item, ast.Attribute):
            for sub in ast.walk(item):
                if isinstance(sub, ast.Name):
                    in_attribute.add(id(sub))
    names: set[str] = set()
    plain: set[str] = set()
    for item in ast.walk(expr):
        if id(item) in heads:
            continue
        if isinstance(item, ast.Name) and isinstance(item.ctx, ast.Load):
            names.add(item.id)
            if id(item) not in in_attribute:
                plain.add(item.id)
        elif isinstance(item, ast.Attribute):
            names.add(item.attr)
    return (
        frozenset(names - _KEY_MACHINERY),
        frozenset(plain - _KEY_MACHINERY),
    )


class _SiteScanner:
    """Discover the memo sites inside one function."""

    def __init__(self, program: Program, fn: Function) -> None:
        self.program = program
        self.fn = fn

    # -- key resolution --------------------------------------------------

    def resolve_key(
        self, expr: ast.expr,
    ) -> tuple[frozenset[str], frozenset[str], bool]:
        produced = self.fn.trace(expr)
        names, value_names = key_component_names(produced)
        opaque = False
        if isinstance(produced, ast.Name):
            # An untraceable bare name (typically a key *parameter*):
            # the composition is invisible from here.
            opaque = True
        if names & self._packed_param_names():
            # ``stable_hash(args)`` over a ``*args`` pack: the key
            # covers an unknowable set of values, so over-keying can't
            # be judged (KEY001 name checks still apply).
            opaque = True
        return names, value_names, opaque

    def _packed_param_names(self) -> set[str]:
        """``*args``/``**kwargs`` names of this function and its closures."""
        names: set[str] = set()
        for scope in self.fn.scopes():
            formals = scope.node.args
            if formals.vararg is not None:
                names.add(formals.vararg.arg)
            if formals.kwarg is not None:
                names.add(formals.kwarg.arg)
        return names

    # -- discovery -------------------------------------------------------

    def scan(self) -> list[MemoSite]:
        sites: list[MemoSite] = []
        own = self.fn.own if self.fn.is_lambda else outside_lambdas(self.fn)
        for item in own:
            if not isinstance(item, ast.Call):
                continue
            func = item.func
            if not isinstance(func, ast.Attribute) or len(item.args) < 2:
                continue
            if func.attr == "get_or_compute":
                sites.append(self._site("memo", item, func, "memo"))
            elif func.attr == "put" and self._cache_receiver(func.value):
                sites.append(self._site("cache-put", item, func, "cache"))
        return sites

    def _site(self, kind: str, call: ast.Call, func: ast.Attribute,
              default: str) -> MemoSite:
        """The site of ``<receiver>.<func>(key, compute_or_value)``."""
        receiver = terminal_name(func.value) or default
        key_names, value_names, opaque = self.resolve_key(call.args[0])
        fn, module = self.fn, self.fn.module
        value = fn.trace(call.args[1])
        targets = self.program.resolve(fn, module, value)
        if not targets and isinstance(value, ast.Call):
            # A producing call: the callee computes the cached value.
            targets = self.program.resolve(fn, module, value.func)
        return MemoSite(
            kind=kind,
            path=self.fn.module.path,
            line=call.lineno,
            end_line=call.end_lineno or call.lineno,
            node=self.fn,
            cache_name=f"{receiver}.{func.attr}",
            key_names=key_names,
            key_value_names=value_names,
            key_opaque=opaque,
            compute=tuple(runs(targets)),
        )

    def _cache_receiver(self, expr: ast.expr) -> bool:
        """Whether a ``.put`` receiver looks like the EvalCache or a
        ``Memo``."""
        name = terminal_name(expr)
        if name is not None and any(
                part in name.lower() for part in ("cache", "memo")):
            return True
        typ = self.program.instance_type(self.fn, self.fn.module, expr)
        return typ is not None and typ.endswith((".EvalCache", ".Memo"))


def _lru_sites(program: Program) -> list[MemoSite]:
    sites: list[MemoSite] = []
    for fn in program.functions.values():
        for dec in fn.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            terminal = terminal_name(target)
            if terminal not in LRU_DECORATORS:
                continue
            bindable = frozenset(slot.name for slot in fn.bindable)
            sites.append(MemoSite(
                kind="lru",
                path=fn.module.path,
                line=fn.node.lineno,
                end_line=fn.node.body[0].lineno - 1 if fn.node.body
                else fn.node.lineno,
                node=fn,
                cache_name=f"functools.{terminal}[{fn.short}]",
                key_names=bindable,
                key_value_names=bindable,
                key_opaque=False,
                compute=(fn,),
            ))
            break
    return sites


def discover_sites(program: Program) -> list[MemoSite]:
    """Every memoization site in the project, in a stable order."""
    sites: list[MemoSite] = []
    for fn in program.bodies:
        sites.extend(_SiteScanner(program, fn).scan())
    sites.extend(_lru_sites(program))
    sites.sort(key=lambda site: (site.path, site.line, site.cache_name))
    return sites

"""Memoization-site discovery for the cache-key soundness pass.

A *site* is one place a computation's result is stored under a key:

* ``<memo>.get_or_compute(key, compute)`` — the :class:`repro.fastpath
  .Memo` protocol used by the array/gate/repeater/batch/serve layers;
* ``functools.lru_cache`` / ``functools.cache`` decorated defs — the
  parameters *are* the key;
* ``<cache>.put(key, value)`` — the persistent ``EvalCache`` admission
  sites in the evaluation engine.

For each site the scanner resolves the *key component names* (which
identifiers flow into the key expression, tracing locals through
assignments and ``zip`` loop targets) and the *compute entry nodes*
(which call-graph nodes produce the cached value, resolving lambdas,
bound methods, ``functools.partial``, and decorator-bound closure
parameters via ``ContextModel.decorator_bindings``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.concurrency.contexts import (
    ContextModel,
    Node,
    dotted_chain,
    iter_own_statements,
)
from repro.analysis.context import terminal_name

#: Decorator terminals that memoize the decorated def on its arguments.
LRU_DECORATORS: frozenset[str] = frozenset({
    "lru_cache", "cache", "cached_property",
})

#: Bounded depth for the intra-function producer trace.
_TRACE_DEPTH = 6

#: Names that appear in key expressions but are derivation machinery,
#: never key *data*.
_KEY_MACHINERY: frozenset[str] = frozenset({
    "stable_hash", "config_key", "sorted", "tuple", "frozenset", "str",
    "repr", "len", "asdict", "astuple", "dict", "hash", "id", "type",
    "isinstance", "min", "max", "round", "zip", "enumerate", "range",
})


@dataclass  # repro: noqa[SPEC001] -- declarations bind in post-pass
class MemoSite:
    """One memoization site and everything the rules need about it."""

    kind: str  # "memo" | "lru" | "cache-put"
    path: str
    line: int
    end_line: int
    node: Node  # the enclosing node (== compute node for "lru")
    cache_name: str  # display, e.g. "_OPTIMUM_MEMO.get_or_compute"
    key_names: frozenset[str]
    key_value_names: frozenset[str]  # plain-name subset, for KEY002
    key_opaque: bool
    compute: tuple[Node, ...]
    keyed_by: set[str] = field(default_factory=set)
    exempt: dict[str, str] = field(default_factory=dict)

    @property
    def where(self) -> str:
        return f"{self.path}:{self.line}"


class _Tracer:
    """Bounded intra-function producer trace for local names.

    Resolves ``cache.put(key, record)`` back to the expressions that
    produced ``key`` and ``record``: plain assignments, tuple-unpacking
    assignments, and ``for a, b in zip(xs, ys)`` loop targets.
    """

    def __init__(self, node: Node) -> None:
        self.node = node
        #: name -> (expr, tuple index | None); index selects a zip arm
        #: or a tuple-unpack slot.
        self.producers: dict[str, tuple[ast.expr, int | None]] = {}
        for item in iter_own_statements(node.statements):
            if isinstance(item, ast.Assign):
                for target in item.targets:
                    self._note_target(target, item.value)
            elif isinstance(item, ast.AnnAssign) and item.value is not None:
                self._note_target(item.target, item.value)
            elif isinstance(item, ast.For):
                self._note_loop(item.target, item.iter)

    def _note_target(self, target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.producers.setdefault(target.id, (value, None))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for index, element in enumerate(target.elts):
                if isinstance(element, ast.Name):
                    self.producers.setdefault(
                        element.id, (value, index),
                    )

    def _note_loop(self, target: ast.expr, iterable: ast.expr) -> None:
        # ``for key, rec in zip(keys, records)``: position selects the
        # zip arm; a plain iterable maps every target to it whole.
        if isinstance(target, ast.Name):
            self.producers.setdefault(target.id, (iterable, None))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for index, element in enumerate(target.elts):
                if isinstance(element, ast.Name):
                    self.producers.setdefault(
                        element.id, (iterable, index),
                    )

    def resolve(self, expr: ast.expr, depth: int = 0) -> ast.expr:
        """The most informative producer expression behind ``expr``."""
        if depth >= _TRACE_DEPTH:
            return expr
        if isinstance(expr, ast.Name):
            produced = self.producers.get(expr.id)
            if produced is None:
                return expr
            value, index = produced
            value = self._select(value, index)
            if value is expr:
                return expr
            return self.resolve(value, depth + 1)
        if isinstance(expr, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp)):
            return self.resolve(expr.elt, depth + 1)
        if isinstance(expr, ast.Starred):
            return self.resolve(expr.value, depth + 1)
        return expr

    def _select(self, value: ast.expr, index: int | None) -> ast.expr:
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
    """Discover the memo sites inside one node."""

    def __init__(self, model: ContextModel, node: Node) -> None:
        self.model = model
        self.node = node
        self.tracer = _Tracer(node)

    # -- compute resolution ----------------------------------------------

    def _closure_param_owner(self, name: str) -> Node | None:
        """The enclosing-scope node that defines ``name`` as a param."""
        qual = self.node.qualname
        while "." in qual:
            qual = qual.rsplit(".", 1)[0]
            owner = self.model.nodes.get(qual)
            if owner is not None and name in owner.params:
                return owner
        return None

    def resolve_compute(self, expr: ast.expr) -> tuple[Node, ...]:
        if isinstance(expr, ast.Lambda):
            for lam in self.node.inline_lambdas:
                if lam.body is expr.body:
                    return (lam,)
            return ()
        if isinstance(expr, ast.Name):
            if expr.id in self.node.params:
                owner = self.node
            else:
                owner = self._closure_param_owner(expr.id)
            if owner is not None:
                # A closure/callable parameter: if the owner is a
                # decorator, the bound callables are the real computes.
                bound = self.model.decorator_bindings.get(
                    owner.qualname, [],
                )
                return tuple(bound)
            produced = self.tracer.resolve(expr)
            if produced is not expr:
                return self.resolve_compute(produced)
            local = self.model.nodes.get(
                f"{self.node.module.qualname}.{expr.id}"
            )
            if local is not None:
                return (local,)
            imported = self.node.module.imports.get(expr.id)
            if imported is not None and imported[0] == "symbol":
                target = self.model.nodes.get(imported[1])
                if target is not None:
                    return (target,)
            return ()
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and \
                    expr.value.id == self.node.self_name and \
                    self.node.owner is not None:
                method = self.node.owner.methods.get(expr.attr)
                if method is not None:
                    found = self.model.nodes.get(method.qualname)
                    return (found,) if found is not None else ()
            chain = dotted_chain(expr, self.node.module)
            if chain is not None:
                found = self.model.nodes.get(chain)
                if found is not None:
                    return (found,)
            return ()
        if isinstance(expr, ast.Call):
            chain = dotted_chain(expr.func, self.node.module)
            if chain is not None and \
                    chain.rsplit(".", 1)[-1] == "partial" and expr.args:
                return self.resolve_compute(expr.args[0])
            # A producing call: the callee computes the cached value.
            return self.resolve_compute(expr.func)
        return ()

    # -- key resolution --------------------------------------------------

    def resolve_key(
        self, expr: ast.expr,
    ) -> tuple[frozenset[str], frozenset[str], bool]:
        produced = self.tracer.resolve(expr)
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
        """``*args``/``**kwargs`` names of this node and its closures."""
        names: set[str] = set()
        qual = self.node.qualname
        while qual:
            fn = self.model.project.functions.get(qual)
            if fn is not None:
                formals = fn.node.args
                if formals.vararg is not None:
                    names.add(formals.vararg.arg)
                if formals.kwarg is not None:
                    names.add(formals.kwarg.arg)
            if "." not in qual:
                break
            qual = qual.rsplit(".", 1)[0]
        return names

    # -- discovery -------------------------------------------------------

    def scan(self) -> list[MemoSite]:
        sites: list[MemoSite] = []
        for item in iter_own_statements(self.node.statements):
            if not isinstance(item, ast.Call):
                continue
            func = item.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "get_or_compute" and len(item.args) >= 2:
                sites.append(self._memo_site(item, func))
            elif func.attr == "put" and len(item.args) >= 2 and \
                    self._cache_receiver(func.value):
                sites.append(self._put_site(item, func))
        return sites

    def _memo_site(self, call: ast.Call,
                   func: ast.Attribute) -> MemoSite:
        receiver = terminal_name(func.value) or "memo"
        key_names, value_names, opaque = self.resolve_key(call.args[0])
        return MemoSite(
            kind="memo",
            path=self.node.module.path,
            line=call.lineno,
            end_line=call.end_lineno or call.lineno,
            node=self.node,
            cache_name=f"{receiver}.get_or_compute",
            key_names=key_names,
            key_value_names=value_names,
            key_opaque=opaque,
            compute=self.resolve_compute(call.args[1]),
        )

    def _cache_receiver(self, expr: ast.expr) -> bool:
        """Whether a ``.put`` receiver looks like the EvalCache."""
        name = terminal_name(expr)
        if name is not None and "cache" in name.lower():
            return True
        typ = None
        if isinstance(expr, ast.Name):
            typ = self.model.global_types.get(
                (self.node.module.qualname, expr.id)
            )
        elif isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ) and expr.value.id == self.node.self_name and \
                self.node.owner is not None:
            typ = self.model.field_types.get(
                (self.node.owner.qualname, expr.attr)
            )
        return typ is not None and typ.endswith(".EvalCache")

    def _put_site(self, call: ast.Call, func: ast.Attribute) -> MemoSite:
        receiver = terminal_name(func.value) or "cache"
        key_names, value_names, opaque = self.resolve_key(call.args[0])
        return MemoSite(
            kind="cache-put",
            path=self.node.module.path,
            line=call.lineno,
            end_line=call.end_lineno or call.lineno,
            node=self.node,
            cache_name=f"{receiver}.put",
            key_names=key_names,
            key_value_names=value_names,
            key_opaque=opaque,
            compute=self.resolve_compute(call.args[1]),
        )


def _lru_sites(model: ContextModel) -> list[MemoSite]:
    sites: list[MemoSite] = []
    for fn in model.project.functions.values():
        node = model.nodes.get(fn.qualname)
        if node is None:
            continue
        for dec in fn.node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            terminal = terminal_name(target)
            if terminal not in LRU_DECORATORS:
                continue
            bindable = node.params[1:] if fn.self_name is not None \
                else node.params
            sites.append(MemoSite(
                kind="lru",
                path=node.module.path,
                line=fn.node.lineno,
                end_line=fn.node.body[0].lineno - 1 if fn.node.body
                else fn.node.lineno,
                node=node,
                cache_name=f"functools.{terminal}[{node.short}]",
                key_names=frozenset(bindable),
                key_value_names=frozenset(bindable),
                key_opaque=False,
                compute=(node,),
            ))
            break
    return sites


def discover_sites(model: ContextModel) -> list[MemoSite]:
    """Every memoization site in the project, in a stable order."""
    sites: list[MemoSite] = []
    all_nodes = list(model.nodes.values()) + list(model.lambda_nodes)
    for node in all_nodes:
        sites.extend(_SiteScanner(model, node).scan())
    sites.extend(_lru_sites(model))
    sites.sort(key=lambda site: (site.path, site.line, site.cache_name))
    return sites

"""Transitive effect inference for the cache-key soundness pass.

For every function of the shared program model this module computes, to
a fixpoint of the shared worklist solver (:mod:`repro.analysis.fixpoint`)
over the call edges :mod:`..concurrency.contexts` resolved (inline
lambdas and decorator-wrapped functions included):

* the *read set* — shared state keys (module globals, instance fields)
  the node transitively reads;
* the *write set* — shared state keys it transitively writes outside
  ``__init__`` frames (the DET002 facts);
* the *nondeterministic sources* it transitively reaches — wall-clock
  and monotonic time, random/uuid/secrets, ``os.environ``, ``hash()``,
  file reads, and iteration over visibly-unsorted sets;
* the *mention set* — every identifier the node (or anything it calls)
  names, which KEY002 uses to prove a key component is never read.

Every read/write/nondet fact carries the originating source location
and a human-readable chain describing how the cached computation
reaches it, in the style of the DIM/CONC inference chains.

Nodes in *neutral* modules (``repro.fastpath``, ``repro.obs``) are
instrumentation plumbing: memo bookkeeping and metrics counters would
otherwise flag every cached computation, so they contribute no facts
and are not traversed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis import fixpoint
from repro.analysis.concurrency.state import StateKey, StateModel
from repro.analysis.program import Function, Program, dotted_chain

#: Module qualnames (exact or dotted prefixes) whose nodes are
#: instrumentation: no facts in, no traversal through.
NEUTRAL_MODULES: tuple[str, ...] = ("repro.fastpath", "repro.obs")

#: Dotted call chains that read a nondeterministic source. Values are
#: the display names embedded in DET001 findings.
NONDET_CHAINS: dict[str, str] = {
    "time.time": "wall-clock time (time.time)",
    "time.time_ns": "wall-clock time (time.time_ns)",
    "time.monotonic": "monotonic time (time.monotonic)",
    "time.monotonic_ns": "monotonic time (time.monotonic_ns)",
    "time.perf_counter": "monotonic time (time.perf_counter)",
    "time.perf_counter_ns": "monotonic time (time.perf_counter_ns)",
    "time.process_time": "process time (time.process_time)",
    "datetime.datetime.now": "wall-clock time (datetime.now)",
    "datetime.datetime.utcnow": "wall-clock time (datetime.utcnow)",
    "datetime.date.today": "wall-clock time (date.today)",
    "os.urandom": "randomness (os.urandom)",
    "os.getenv": "process environment (os.getenv)",
    "os.getpid": "process identity (os.getpid)",
    "uuid.uuid1": "randomness (uuid.uuid1)",
    "uuid.uuid4": "randomness (uuid.uuid4)",
}

#: Chain *prefixes* that are nondeterministic whatever the terminal.
NONDET_PREFIXES: dict[str, str] = {
    "random.": "randomness (random module)",
    "secrets.": "randomness (secrets module)",
    "numpy.random.": "randomness (numpy.random)",
}

#: Attribute-call terminals that read files (content can change between
#: identically-keyed calls).
_FILE_READ_ATTRS: frozenset[str] = frozenset({
    "read_text", "read_bytes", "readlines",
})


@dataclass(frozen=True, slots=True)
class Fact:
    """One effect fact: where it originates and how it was reached."""

    path: str
    line: int
    chain: str


@dataclass  # repro: noqa[SPEC001] -- mutable fixpoint fact table
class EffectModel:
    """Solved per-node effect tables, keyed by node qualname."""

    reads: dict[str, dict[StateKey, Fact]] = field(default_factory=dict)
    writes: dict[str, dict[StateKey, Fact]] = field(default_factory=dict)
    nondet: dict[str, dict[str, Fact]] = field(default_factory=dict)
    mentions: dict[str, set[str]] = field(default_factory=dict)

    def merged(self, kind: str, nodes: tuple[Function, ...]) -> dict:
        """Union of one fact table across several entry nodes."""
        table = getattr(self, kind)
        out: dict = {}
        for node in nodes:
            for key, fact in table.get(node.qualname, {}).items():
                out.setdefault(key, fact)
        return out

    def merged_mentions(self, nodes: tuple[Function, ...]) -> set[str]:
        out: set[str] = set()
        for node in nodes:
            out |= self.mentions.get(node.qualname, set())
        return out


def is_neutral(node: Function) -> bool:
    """Whether a node lives in an instrumentation module."""
    qual = node.module.qualname
    return any(
        qual == prefix or qual.startswith(prefix + ".")
        for prefix in NEUTRAL_MODULES
    )


def _is_set_expr(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("set", "frozenset")
    return False


def _scan_nondet(node: Function) -> dict[str, Fact]:
    """Direct nondeterministic sources in one node's own body."""
    found: dict[str, Fact] = {}

    def note(source: str, line: int) -> None:
        found.setdefault(source, Fact(
            path=node.module.path, line=line,
            chain=f"{source} at {node.module.path}:{line} "
                  f"in {node.short}",
        ))

    for item in node.own:
        if isinstance(item, ast.Call):
            chain = dotted_chain(item.func, node.module)
            if chain is not None:
                if chain in NONDET_CHAINS:
                    note(NONDET_CHAINS[chain], item.lineno)
                else:
                    for prefix, what in NONDET_PREFIXES.items():
                        if chain.startswith(prefix):
                            note(what, item.lineno)
                            break
            if isinstance(item.func, ast.Name) and \
                    item.func.id in ("hash", "input"):
                what = "hash() (PYTHONHASHSEED-dependent)" \
                    if item.func.id == "hash" else "interactive input()"
                note(what, item.lineno)
            if isinstance(item.func, ast.Name) and item.func.id == "open":
                note("file read (open)", item.lineno)
            if isinstance(item.func, ast.Attribute) and \
                    item.func.attr in _FILE_READ_ATTRS:
                note(f"file read (.{item.func.attr}())", item.lineno)
        elif isinstance(item, (ast.Attribute, ast.Subscript)):
            target = item if isinstance(item, ast.Attribute) \
                else item.value
            chain = dotted_chain(target, node.module) \
                if isinstance(target, ast.Attribute) else None
            if chain == "os.environ":
                note("process environment (os.environ)", item.lineno)
        elif isinstance(item, ast.For) and _is_set_expr(item.iter):
            note("iteration over an unsorted set", item.lineno)
        elif isinstance(item, ast.comprehension) and \
                _is_set_expr(item.iter):
            note("iteration over an unsorted set", item.iter.lineno)
    return found


def _scan_mentions(node: Function) -> set[str]:
    names: set[str] = set()
    for item in node.own:
        if isinstance(item, ast.Name):
            names.add(item.id)
        elif isinstance(item, ast.Attribute):
            names.add(item.attr)
        elif isinstance(item, ast.arg):
            names.add(item.arg)
    return names


def solve_effects(program: Program, state: StateModel) -> EffectModel:
    """Collect per-function facts and propagate them along call edges."""
    effects = EffectModel()
    live = [node for node in program.bodies if not is_neutral(node)]
    # Base facts.
    for node in live:
        effects.reads[node.qualname] = {}
        effects.writes[node.qualname] = {}
        effects.nondet[node.qualname] = _scan_nondet(node)
        effects.mentions[node.qualname] = _scan_mentions(node)
    for access in state.accesses:
        if is_neutral(access.node):
            continue
        fact = Fact(
            path=access.node.module.path, line=access.line,
            chain=(
                f"{access.op} of {access.key[1]}.{access.key[2]} at "
                f"{access.node.module.path}:{access.line} in "
                f"{access.node.short}"
            ),
        )
        bucket = effects.reads if not access.write else effects.writes
        if access.write and access.in_init:
            continue  # constructing your own frame is not a side effect
        bucket.setdefault(access.node.qualname, {}).setdefault(
            access.key, fact,
        )
    # Propagation: callee facts flow to callers with extended chains;
    # a node whose facts grew is re-pulled by its callers.
    ordered = sorted(live, key=lambda node: node.qualname)
    hops: dict[int, list[tuple[Function, str]]] = {}
    callers: dict[str, list[Function]] = {}
    for node in ordered:
        edges: list[tuple[Function, int]] = [
            (edge.callee, edge.line) for edge in node.calls
        ] + [(lam, lam.node.body.lineno) for lam in node.lambdas]
        hops[id(node)] = []
        for callee, line in edges:
            if is_neutral(callee) or callee.qualname == node.qualname:
                continue
            hops[id(node)].append((callee, (
                f", reached via {callee.short} called at "
                f"{node.module.path}:{line}"
            )))
            callers.setdefault(callee.qualname, []).append(node)

    def step(node: Function) -> list[Function]:
        grew = False
        for callee, hop in hops[id(node)]:
            for kind in ("reads", "writes", "nondet"):
                mine = getattr(effects, kind).setdefault(
                    node.qualname, {},
                )
                theirs = getattr(effects, kind).get(
                    callee.qualname, {},
                )
                for key, fact in theirs.items():
                    if key not in mine:
                        mine[key] = Fact(
                            path=fact.path, line=fact.line,
                            chain=fact.chain + hop,
                        )
                        grew = True
            their_names = effects.mentions.get(callee.qualname)
            if their_names:
                mine_names = effects.mentions.setdefault(
                    node.qualname, set(),
                )
                before = len(mine_names)
                mine_names |= their_names
                grew |= len(mine_names) != before
        return callers.get(node.qualname, []) if grew else []

    fixpoint.solve(ordered, step)
    return effects


def mutable_state_keys(state: StateModel) -> frozenset[StateKey]:
    """State keys with at least one non-init write anywhere.

    A module global that no function ever writes is a frozen constant:
    it cannot change between identically-keyed calls within a process,
    so reading it is not a KEY001 staleness hazard. Writes from neutral
    instrumentation modules still count — ``fastpath.set_enabled``
    really does mutate ``_enabled``.
    """
    return frozenset(
        access.key
        for access in state.accesses
        if access.write and not access.in_init
    )

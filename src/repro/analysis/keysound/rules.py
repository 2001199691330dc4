"""The KEY/DET rule implementations.

Each rule combines the memoization sites from :mod:`.sites` with the
transitive effects from :mod:`.effects` and the declarations the
program model's directive binder attached to sites and definitions;
messages carry the full read-set inference chain in
the DIM/CONC style.
"""

from __future__ import annotations

from repro.analysis.concurrency.contexts import trim_chain
from repro.analysis.concurrency.state import (
    StateKey,
    StateModel,
    render_key,
)
from repro.analysis.context import KEY_FUNCTIONS
from repro.analysis.finding import Finding
from repro.analysis.keysound.effects import EffectModel, Fact
from repro.analysis.keysound.sites import MemoSite
from repro.analysis.program import Function, Program

def _field_immutable(key: StateKey, mutable: frozenset[StateKey],
                     state: StateModel) -> bool:
    """Fields never written outside init, or of non-escaping classes."""
    if key[0] != "field":
        return False
    if key not in mutable:
        return True
    return key[1] not in state.shared_classes


def check_key001(
    sites: list[MemoSite],
    effects: EffectModel,
    state: StateModel,
    mutable: frozenset[StateKey],
    global_exempt: dict[StateKey, str],
    disable: frozenset[str],
) -> list[Finding]:
    """A value the computation reads is absent from the cache key."""
    if "KEY001" in disable:
        return []
    findings: list[Finding] = []
    for site in sites:
        if not site.compute:
            continue
        covered = set(site.key_names) | site.keyed_by
        reads = effects.merged("reads", site.compute)
        for key in sorted(reads):
            kind, scope, name = key
            if key not in mutable:
                continue  # frozen constant: cannot go stale
            if key in global_exempt or name in site.exempt:
                continue
            if name in covered:
                continue
            if kind == "field":
                if _field_immutable(key, mutable, state):
                    continue
                # The whole receiver in the key covers its fields.
                if "self" in site.key_names and site.node.owner \
                        is not None and scope == site.node.owner.qualname:
                    continue
            fact: Fact = reads[key]
            findings.append(Finding(
                path=site.path, line=site.line, col=0, rule="KEY001",
                message=(
                    f"cache key for {site.cache_name} omits mutable "
                    f"state '{render_key(key)}' that the computation "
                    f"reads: {trim_chain(fact.chain)}; a change to it would "
                    f"serve a stale cached result — add it to the key, "
                    f"or declare '# repro: keyed-by[{name}]' if the key "
                    f"already embeds it, or '# repro: key-exempt"
                    f"[{name}: reason]' at the site or the definition"
                ),
            ))
    return findings


def check_key002(
    sites: list[MemoSite],
    effects: EffectModel,
    disable: frozenset[str],
) -> list[Finding]:
    """The key hashes values the computation never reads."""
    if "KEY002" in disable:
        return []
    findings: list[Finding] = []
    for site in sites:
        if site.key_opaque or not site.compute:
            continue
        mentioned = effects.merged_mentions(site.compute)
        for name in sorted(site.key_value_names):
            if name == "self" or name in site.keyed_by or \
                    name in site.exempt:
                continue
            if name in mentioned:
                continue
            findings.append(Finding(
                path=site.path, line=site.line, col=0, rule="KEY002",
                message=(
                    f"cache key for {site.cache_name} includes "
                    f"'{name}' but the computation "
                    f"({', '.join(n.short for n in site.compute)}) "
                    f"never reads it: identical results are split "
                    f"across distinct cache entries, silently killing "
                    f"the hit rate — drop '{name}' from the key or "
                    f"declare '# repro: keyed-by[{name}]' if it reaches "
                    f"the computation invisibly"
                ),
            ))
    return findings


def check_det001(
    sites: list[MemoSite],
    effects: EffectModel,
    functions: dict[str, Function],
    global_exempt: dict[StateKey, str],
    mutable: frozenset[StateKey],
    disable: frozenset[str],
) -> list[Finding]:
    """Nondeterministic sources reachable from cached computations and
    key-derivation functions."""
    if "DET001" in disable:
        return []
    findings: list[Finding] = []
    for site in sites:
        if not site.compute:
            continue
        nondet = effects.merged("nondet", site.compute)
        for source in sorted(nondet):
            if any(token in site.exempt for token in (source,)):
                continue
            fact: Fact = nondet[source]
            findings.append(Finding(
                path=site.path, line=site.line, col=0, rule="DET001",
                message=(
                    f"cached computation behind {site.cache_name} "
                    f"reaches a nondeterministic source — {source}: "
                    f"{trim_chain(fact.chain)}; the same key could cache "
                    f"different results across runs — remove the "
                    f"source or hoist it out of the cached path"
                ),
            ))
    # Key-derivation functions must themselves be deterministic and
    # read no mutable state: their output is the key, so nondeterminism
    # or mutable state inside them corrupts every key they derive.
    for qual, node in sorted(functions.items()):
        if node.name not in KEY_FUNCTIONS:
            continue
        line = node.node.lineno
        for source in sorted(effects.nondet.get(qual, {})):
            fact = effects.nondet[qual][source]
            findings.append(Finding(
                path=node.module.path, line=line, col=0, rule="DET001",
                message=(
                    f"key-derivation function {node.short} reaches a "
                    f"nondeterministic source — {source}: "
                    f"{trim_chain(fact.chain)}; keys derived from it are "
                    f"not reproducible"
                ),
            ))
        for key in sorted(effects.reads.get(qual, {})):
            if key not in mutable or key in global_exempt:
                continue
            fact = effects.reads[qual][key]
            findings.append(Finding(
                path=node.module.path, line=line, col=0, rule="DET001",
                message=(
                    f"key-derivation function {node.short} reads "
                    f"mutable state '{render_key(key)}': "
                    f"{trim_chain(fact.chain)}; two calls with identical "
                    f"inputs could derive different keys"
                ),
            ))
    return findings


def check_det002(
    sites: list[MemoSite],
    effects: EffectModel,
    state: StateModel,
    mutable: frozenset[StateKey],
    global_exempt: dict[StateKey, str],
    disable: frozenset[str],
) -> list[Finding]:
    """A cached computation mutates state outside its own frame."""
    if "DET002" in disable:
        return []
    findings: list[Finding] = []
    for site in sites:
        if not site.compute:
            continue
        writes = effects.merged("writes", site.compute)
        for key in sorted(writes):
            kind, scope, name = key
            if key in global_exempt or name in site.exempt:
                continue
            if kind == "field" and scope not in state.shared_classes:
                continue  # mutating a non-escaping instance is local
            if kind == "field" and site.node.owner is not None and \
                    scope == site.node.owner.qualname and \
                    "self" in site.key_names:
                # Writing fields of the keyed receiver is the
                # established lazy-attribute caching idiom; CP003
                # covers mutation of the *shared result*.
                continue
            fact: Fact = writes[key]
            findings.append(Finding(
                path=site.path, line=site.line, col=0, rule="DET002",
                message=(
                    f"cached computation behind {site.cache_name} "
                    f"mutates state outside its frame — "
                    f"'{render_key(key)}': {trim_chain(fact.chain)}; on a "
                    f"cache hit the mutation is skipped, so program "
                    f"state depends on cache history — hoist the side "
                    f"effect out of the cached path or declare "
                    f"'# repro: key-exempt[{name}: reason]'"
                ),
            ))
    return findings


def run_rules(
    sites: list[MemoSite],
    effects: EffectModel,
    state: StateModel,
    program: Program,
    mutable: frozenset[StateKey],
    global_exempt: dict[StateKey, str],
    note_findings: list[Finding],
    disable: frozenset[str],
) -> list[Finding]:
    """Run every KEY/DET rule and return the merged finding list."""
    findings: list[Finding] = []
    findings.extend(check_key001(
        sites, effects, state, mutable, global_exempt, disable,
    ))
    findings.extend(check_key002(sites, effects, disable))
    findings.extend(check_det001(
        sites, effects, program.functions, global_exempt,
        mutable, disable,
    ))
    findings.extend(check_det002(
        sites, effects, state, mutable, global_exempt, disable,
    ))
    if "KEYNOTE" not in disable:
        findings.extend(note_findings)
    return findings

"""Finding and rule metadata shared by every lint rule.

A :class:`Finding` is one violation at one source location. Rules are
registered in :mod:`repro.analysis.rules`; the metadata here (rule id,
human name, protected invariant) is what the CLI and the docs render.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: File the violation is in (as given to the runner).
        line: 1-based line number.
        col: 0-based column offset.
        rule: Rule id, e.g. ``"CP003"``.
        message: Human-readable description with a suggested fix.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, used by ``--format json``."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


def by_target(
    targets: Iterable[Any], findings: Iterable[Finding],
) -> dict[str, list[Finding]]:
    """Sorted findings per target module (anything with a ``path``);
    findings on other modules are dropped."""
    results: dict[str, list[Finding]] = {target.path: [] for target in targets}
    for finding in findings:
        if finding.path in results:
            results[finding.path].append(finding)
    return {path: sorted(found) for path, found in results.items()}


@dataclass(frozen=True)
class RuleInfo:
    """Registry metadata for one rule.

    Attributes:
        rule_id: Stable identifier used in ``--disable`` and noqa comments.
        name: Short kebab-case name.
        invariant: The model invariant the rule protects.
    """

    rule_id: str
    name: str
    invariant: str


#: Every shipped rule, in family order. The check functions live in
#: :mod:`repro.analysis.rules`; this table is the single source of truth
#: for ids and documentation.
RULE_INFO: tuple[RuleInfo, ...] = (
    RuleInfo(
        "CP001",
        "memoized-unhashable-param",
        "functions memoized via repro.fastpath (or keyed through "
        "stable_hash) must take only hashable/frozen parameter types",
    ),
    RuleInfo(
        "CP002",
        "memoized-impure",
        "memoized functions must be pure: no global/nonlocal writes and "
        "no mutation of their arguments",
    ),
    RuleInfo(
        "CP003",
        "memoized-return-mutation",
        "results of memoized callables are shared process-wide and must "
        "never be mutated at call sites",
    ),
    RuleInfo(
        "NUM001",
        "float-equality",
        "float quantities must not be compared with == / != against "
        "float literals; use math.isclose or pytest.approx",
    ),
    RuleInfo(
        "NUM002",
        "unguarded-division",
        "divisions by a bare parameter in model formulas must be guarded "
        "by validation before use",
    ),
    RuleInfo(
        "NUM003",
        "mutable-default-arg",
        "default argument values must be immutable",
    ),
    RuleInfo(
        "SPEC001",
        "unfrozen-spec-dataclass",
        "spec/config dataclasses must be frozen=True so cache keys and "
        "memoized results stay immutable",
    ),
    RuleInfo(
        "UNIT001",
        "unit-suffix",
        "physical-quantity names must use the canonical repro.units "
        "suffixes (_s, _w, _j, _f, _m, _m2, _v, _a, _ohm, _k, _hz)",
    ),
    RuleInfo(
        "DIM001",
        "dim-incompatible-operands",
        "operands of +, -, comparisons, min/max and math.isclose must "
        "carry the same inferred physical dimension",
    ),
    RuleInfo(
        "DIM002",
        "dim-annotation-mismatch",
        "a value must match the dimension pinned by its dim[...] "
        "annotation or the function's pinned return dimension",
    ),
    RuleInfo(
        "DIM003",
        "dim-suffix-contradiction",
        "a value assigned to a unit-suffixed name must infer to that "
        "suffix's dimension (a _s name must actually hold seconds)",
    ),
    RuleInfo(
        "DIM004",
        "dim-call-boundary",
        "arguments must match pinned parameter/field dimensions, and "
        "math.exp/log/trig and ** exponents must be dimensionless",
    ),
    RuleInfo(
        "DIMNOTE",
        "dim-annotation-malformed",
        "# repro: dim[...] annotation comments must parse (name: unit "
        "entries with units from the seed grammar)",
    ),
    RuleInfo(
        "CONC001",
        "unsynchronized-shared-mutation",
        "module-level or escaping instance state reachable from two or "
        "more thread contexts must only be mutated under a lock (or a "
        "declared '# repro: guarded-by[lockname]' discipline)",
    ),
    RuleInfo(
        "CONC002",
        "blocking-call-in-async",
        "blocking primitives (time.sleep, sync file I/O, subprocess, "
        "Lock.acquire, scalar evaluation) must not be transitively "
        "reachable inside an async def without an executor hop",
    ),
    RuleInfo(
        "CONC003",
        "fork-unsafe-inherited-state",
        "fork-worker entry points must not touch locks, open files, "
        "sockets, or executors inherited from the parent process unless "
        "they are reinitialized via os.register_at_fork(after_in_child)",
    ),
    RuleInfo(
        "CONC004",
        "closure-capture-race",
        "mutable objects captured into executor/pool task closures must "
        "not be mutated on both sides of the submission",
    ),
    RuleInfo(
        "CONCNOTE",
        "guarded-by-annotation-malformed",
        "# repro: guarded-by[lockname] annotation comments must parse, "
        "attach to a state definition, and name a lock in scope",
    ),
    RuleInfo(
        "KEY001",
        "cache-key-missing-read",
        "every value a memoized computation transitively reads (module "
        "globals, closure cells, mutable defaults) must flow into its "
        "cache key, or carry a reasoned '# repro: key-exempt' or "
        "'# repro: keyed-by' declaration — a missed read serves stale "
        "physics",
    ),
    RuleInfo(
        "KEY002",
        "cache-key-overkeyed",
        "a cache key must not hash values the computation never reads: "
        "over-keying silently splits identical computations across "
        "distinct entries and kills hit rates",
    ),
    RuleInfo(
        "DET001",
        "nondeterministic-cached-computation",
        "no nondeterministic source (time, rng, os.environ, file reads, "
        "hash(), iteration order of unsorted sets) may be reachable "
        "from a cached computation or a key-derivation function",
    ),
    RuleInfo(
        "DET002",
        "cached-computation-foreign-mutation",
        "a cached computation must not transitively mutate state "
        "outside its own frame (module globals, shared instance "
        "fields) — generalizing CP003 across calls",
    ),
    RuleInfo(
        "KEYNOTE",
        "key-annotation-malformed",
        "# repro: keyed-by[names] / key-exempt[name: reason] comments "
        "must parse, attach to a memo site or a module-global "
        "definition, and carry a non-empty reason for exemptions",
    ),
    RuleInfo(
        "LINT001",
        "unused-suppression",
        "a '# repro: noqa[...]' comment must suppress at least one "
        "finding of an active pass; stale suppressions are removed, not "
        "accumulated",
    ),
    RuleInfo(
        "IO001",
        "unreadable-source-file",
        "files the linter is asked to check must be readable; an "
        "unreadable file is reported, never silently skipped",
    ),
)

#: Rules produced by the interprocedural passes (``lint --dimensional``
#: / ``--concurrency`` / ``--keysound``) or the driver itself rather
#: than by a per-module check function in :mod:`repro.analysis.rules`.
DRIVER_RULE_IDS: frozenset[str] = frozenset({
    "DIM001", "DIM002", "DIM003", "DIM004", "DIMNOTE",
    "CONC001", "CONC002", "CONC003", "CONC004", "CONCNOTE",
    "KEY001", "KEY002", "DET001", "DET002", "KEYNOTE",
    "LINT001", "IO001",
})

#: Rule ids per analysis pass, for the LINT001 unused-suppression check
#: (a ``noqa[DIM003]`` is only "unused" when the dimensional pass
#: actually ran) and for the merged JSON report.
DIM_RULE_IDS: frozenset[str] = frozenset({
    "DIM001", "DIM002", "DIM003", "DIM004", "DIMNOTE",
})
CONC_RULE_IDS: frozenset[str] = frozenset({
    "CONC001", "CONC002", "CONC003", "CONC004", "CONCNOTE",
})
KEY_RULE_IDS: frozenset[str] = frozenset({
    "KEY001", "KEY002", "DET001", "DET002", "KEYNOTE",
})

#: Rule id -> metadata.
RULES: dict[str, RuleInfo] = {info.rule_id: info for info in RULE_INFO}

#: All known rule ids, for --disable / noqa validation.
ALL_RULE_IDS: frozenset[str] = frozenset(RULES)

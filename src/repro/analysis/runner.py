"""Lint driver: file discovery, shared pre-passes, pass dispatch, output.

The driver parses every target file *plus* the installed ``repro``
package, builds the cross-pass structures once through
:class:`~repro.analysis.registry.SharedAnalysis` (purity index, project
call graph, concurrency model), runs the enabled analysis passes one
after another, and filters the merged findings through each target's
inline-suppression table.

Suppressions are ``noqa`` directives (:mod:`repro.analysis.directives`)
on the line a finding is reported on: a bare ``# repro: noqa`` waives
every rule (prefer the targeted form, which documents *which* invariant
is waived), ``# repro: noqa[CP003, NUM001]`` only the listed rules. A
``[`` always makes it targeted: an unknown rule id, an empty bracket or
an unclosed one suppresses nothing.

Two pseudo-rules can appear in output and are never suppressible:
``SYNTAX`` (a target file failed to parse) and ``NOQA`` (a suppression
comment is malformed or names an unknown rule id).
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.context import ModuleSource
from repro.analysis.directives import Directives
from repro.analysis.finding import ALL_RULE_IDS, Finding
from repro.analysis.registry import (
    PASSES,
    SharedAnalysis,
    resolve_passes,
    run_passes,
)

#: JSON output schema version (``--format json``). Version 2 added the
#: ``passes`` list and the merged-pass findings (CONC/LINT rules);
#: version 3 added per-pass ``timings`` and the keysound pass
#: (KEY/DET rules).
JSON_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run.

    Attributes:
        findings: Surviving findings, sorted by location.
        suppressed: Count of findings silenced by noqa comments.
        files_checked: Number of target files analyzed.
        passes: Analysis passes that ran (``base`` always; plus
            ``dimensional``, ``concurrency``, and/or ``keysound``).
        timings: Wall-clock seconds per pass, in pass order.
    """

    findings: tuple[Finding, ...] = ()
    suppressed: int = 0
    files_checked: int = 0
    passes: tuple[str, ...] = ("base",)
    timings: tuple[tuple[str, float], ...] = ()

    @property
    def ok(self) -> bool:
        """Whether the run is clean."""
        return not self.findings


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                parts = candidate.parts
                if "__pycache__" in parts or any(
                    part.startswith(".") for part in parts
                ):
                    continue
                files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
        else:
            raise FileNotFoundError(
                f"{path} is neither a directory nor a .py file"
            )
    return sorted(files)


def _parse_module(path: Path) -> ModuleSource | Finding:
    try:
        source = path.read_text()
    except FileNotFoundError:
        raise  # a missing target is a usage error, not a finding
    except (OSError, UnicodeDecodeError) as exc:
        return Finding(
            str(path), 1, 0, "IO001",
            f"file could not be read: {exc}",
        )
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            str(path), exc.lineno or 1, (exc.offset or 1) - 1, "SYNTAX",
            f"file does not parse: {exc.msg}",
        )
    return ModuleSource(path=str(path), source=source, tree=tree)


def _package_modules() -> list[ModuleSource]:
    """The installed ``repro`` package, for index context."""
    package_dir = Path(__file__).resolve().parents[1]
    modules = []
    for path in sorted(package_dir.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        parsed = _parse_module(path)
        if isinstance(parsed, ModuleSource):
            modules.append(parsed)
    return modules


def validate_disable(disable: Iterable[str]) -> frozenset[str]:
    """Normalize and validate ``--disable`` rule ids."""
    normalized = {rule.strip().upper() for rule in disable if rule.strip()}
    unknown = normalized - ALL_RULE_IDS
    if unknown:
        known = ", ".join(sorted(ALL_RULE_IDS))
        raise ValueError(
            f"unknown rule id(s) {sorted(unknown)}; known rules: {known}"
        )
    return frozenset(normalized)


def _active_rules(passes: tuple[str, ...]) -> frozenset[str]:
    """Rule ids the given passes can produce (for LINT001 staleness)."""
    active = {"LINT001", "IO001", "SYNTAX", "NOQA"}
    for name in passes:
        registered = PASSES.get(name)
        if registered is not None:
            active |= registered.rule_ids
    return frozenset(active)


@dataclass(frozen=True)
class Suppressions:
    """Per-file suppression table: blanket lines, rule ids per line,
    and (line, message) errors reported as ``NOQA``."""

    blanket_lines: set[int] = field(default_factory=set)
    rule_lines: dict[int, set[str]] = field(default_factory=dict)
    errors: list[tuple[int, str]] = field(default_factory=list)


def noqa_table(directives: Directives) -> Suppressions:
    """Parse a module's ``noqa`` directives into its suppression table."""
    table = Suppressions(errors=directives.notes("noqa"))
    for directive in directives.of("noqa"):
        lineno = directive.line
        if directive.body is None:
            table.blanket_lines.add(lineno)
            continue
        rules = table.rule_lines.setdefault(lineno, set())
        tokens = [
            token.strip() for token in directive.body.split(",")
            if token.strip()
        ]
        if not tokens:
            table.errors.append(
                (lineno, "suppression names no rule; expected "
                         "'# repro: noqa[RULE, ...]'")
            )
        for token in tokens:
            if token.upper() in ALL_RULE_IDS:
                rules.add(token.upper())
            else:
                table.errors.append(
                    (lineno, f"suppression names unknown rule {token!r}")
                )
    return table


def _filter_findings(
    targets: list[ModuleSource],
    parse_failures: list[Finding],
    disable: frozenset[str],
    extra: dict[str, list[Finding]],
    passes: tuple[str, ...] = ("base",),
    timings: tuple[tuple[str, float], ...] = (),
) -> LintResult:
    """Apply noqa suppression + LINT001 hygiene to the merged findings."""
    findings: list[Finding] = list(parse_failures)
    suppressed = 0
    active = _active_rules(passes)
    full_run = all(name in passes for name in PASSES)
    for module in targets:
        suppressions = noqa_table(module.directives)
        for lineno, message in suppressions.errors:
            findings.append(Finding(module.path, lineno, 0, "NOQA", message))
        module_findings = [
            finding for finding in extra.get(module.path, [])
            if finding.rule not in disable
        ]
        used_rules: set[tuple[int, str]] = set()
        used_blanket: set[int] = set()
        for finding in module_findings:
            if finding.line in suppressions.blanket_lines:
                suppressed += 1
                used_blanket.add(finding.line)
            elif finding.rule in suppressions.rule_lines.get(
                finding.line, set()
            ):
                suppressed += 1
                used_rules.add((finding.line, finding.rule))
            else:
                findings.append(finding)
        if "LINT001" in disable:
            continue
        # Noqa hygiene: a suppression that silences nothing any active
        # pass produces is stale. Rules of passes that did not run are
        # left alone, as is LINT001 itself (suppressing the hygiene
        # check is always an explicit waiver, never "unused").
        stale: list[tuple[Finding, bool]] = []
        for line, rules in sorted(suppressions.rule_lines.items()):
            for rule in sorted(rules):
                if rule == "LINT001" or rule not in active:
                    continue
                if (line, rule) not in used_rules:
                    stale.append((Finding(
                        module.path, line, 0, "LINT001",
                        f"suppression '# repro: noqa[{rule}]' silences "
                        f"no {rule} finding on this line; remove it",
                    ), False))
        if full_run:
            # Only a full run (every registered pass) can prove a
            # blanket noqa dead.
            for line in sorted(suppressions.blanket_lines):
                if line not in used_blanket:
                    stale.append((Finding(
                        module.path, line, 0, "LINT001",
                        "blanket suppression '# repro: noqa' silences "
                        "no finding on this line; remove it",
                    ), True))
        for finding, about_blanket in stale:
            # A stale-blanket report must not be silenced by the very
            # blanket being flagged — only a targeted LINT001 waiver
            # (or, for targeted staleness, any other suppression on the
            # line) counts.
            targeted = "LINT001" in suppressions.rule_lines.get(
                finding.line, set(),
            )
            via_blanket = not about_blanket and \
                finding.line in suppressions.blanket_lines
            if targeted or via_blanket:
                suppressed += 1
            else:
                findings.append(finding)
    return LintResult(
        findings=tuple(sorted(findings)),
        suppressed=suppressed,
        files_checked=len(targets) + len(parse_failures),
        passes=passes,
        timings=timings,
    )


def lint_paths(
    paths: Sequence[str | Path],
    disable: Iterable[str] = (),
    dimensional: bool = False,
    concurrency: bool = False,
    keysound: bool = False,
) -> LintResult:
    """Lint files/directories; the main entry point behind the CLI.

    The ``base`` pass always runs. ``dimensional=True`` adds the
    interprocedural dimension-inference pass (DIM rules),
    ``concurrency=True`` the concurrency-safety pass (CONC rules), and
    ``keysound=True`` the cache-key soundness pass (KEY/DET rules); all
    whole-program passes share one call graph built once per
    invocation. Enabling everything is ``mcpat-repro lint --all``.
    """
    disabled = validate_disable(disable)
    files = iter_python_files(paths)
    targets: list[ModuleSource] = []
    parse_failures: list[Finding] = []
    for path in files:
        parsed = _parse_module(path)
        if isinstance(parsed, Finding):
            parse_failures.append(parsed)
        else:
            targets.append(parsed)
    indexed: dict[str, ModuleSource] = {
        module.path: module for module in _package_modules()
    }
    for module in targets:
        indexed[str(Path(module.path).resolve())] = module
    shared = SharedAnalysis(indexed.values())
    passes = resolve_passes(dimensional, concurrency, keysound)
    extra, timings = run_passes(passes, targets, shared, disabled)
    return _filter_findings(
        targets, parse_failures, disabled, extra,
        tuple(one.name for one in passes), timings,
    )


def lint_source(
    source: str,
    path: str = "<snippet>",
    disable: Iterable[str] = (),
    dimensional: bool = False,
    concurrency: bool = False,
    keysound: bool = False,
) -> LintResult:
    """Lint one in-memory module (test fixtures, tooling).

    The snippet is self-indexing: its own memoization facts are
    collected, but the wider package is not consulted. The
    interprocedural passes (``dimensional`` / ``concurrency`` /
    ``keysound``) run over the snippet alone; cross-module facts still
    resolve through their seed tables.
    """
    disabled = validate_disable(disable)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        failure = Finding(
            path, exc.lineno or 1, (exc.offset or 1) - 1, "SYNTAX",
            f"file does not parse: {exc.msg}",
        )
        return _filter_findings([], [failure], disabled, {})
    module = ModuleSource(path=path, source=source, tree=tree)
    shared = SharedAnalysis([module])
    passes = resolve_passes(dimensional, concurrency, keysound)
    extra, timings = run_passes(passes, [module], shared, disabled)
    return _filter_findings(
        [module], [], disabled, extra,
        tuple(one.name for one in passes), timings,
    )


def format_text(result: LintResult) -> str:
    """Human-readable report, one line per finding plus a summary."""
    lines = [
        f"{f.path}:{f.line}:{f.col + 1}: {f.rule} {f.message}"
        for f in result.findings
    ]
    summary = (
        f"{len(result.findings)} finding(s) in "
        f"{result.files_checked} file(s)"
    )
    if result.suppressed:
        summary += f", {result.suppressed} suppressed"
    lines.append(summary)
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    """Machine-readable report (stable schema, see tests)."""
    by_rule: dict[str, int] = {}
    for finding in result.findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "passes": list(result.passes),
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "counts": dict(sorted(by_rule.items())),
        "timings_ms": {
            name: round(seconds * 1000.0, 3)
            for name, seconds in result.timings
        },
        "findings": [f.to_dict() for f in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)

"""The ``# repro: <form>[<body>]`` comment grammar, scanned once per module.

Five forms steer the passes: ``noqa`` (the runner's suppressions),
``dim`` (dimensional pins), ``guarded-by`` (concurrency lock
declarations), ``keyed-by`` and ``key-exempt`` (cache-key
declarations). :func:`scan_directives` tokenizes a module once, and
only if its text contains ``repro:`` at all; each pass then parses the
bracket bodies of its own forms. Only real comments count: a string
that looks like a directive is not one. A known form not followed by a
well-formed ``[...]`` is kept as *malformed* and reported through that
form's note rule (``NOQA``, ``DIMNOTE``, ``CONCNOTE``, ``KEYNOTE``),
except a bare ``noqa``, which is the blanket suppression.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

_DIRECTIVE_RE = re.compile(
    r"#\s*repro:\s*(?P<form>noqa|dim|guarded-by|keyed-by|key-exempt)\b"
    r"(?:\s*\[(?P<body>[^\]]*)(?P<close>\])?)?"
)

#: Form -> the body it expects, for malformed-directive notes.
_EXPECTED_BODY: dict[str, str] = {
    "noqa": "RULE, ...",
    "dim": "name: unit",
    "guarded-by": "lockname",
    "keyed-by": "...",
    "key-exempt": "...",
}


@dataclass(frozen=True)
class Directive:
    """One directive: its form, 1-based line and bracket body.

    ``body`` is ``None`` for a bare ``noqa`` and for malformed entries.
    """

    form: str
    line: int
    body: str | None


@dataclass(frozen=True)
class Directives:
    """Every directive of one module: well-formed and malformed."""

    entries: tuple[Directive, ...] = ()
    malformed: tuple[Directive, ...] = ()

    def of(self, *forms: str) -> list[Directive]:
        """Well-formed directives of the given forms, in source order."""
        return [entry for entry in self.entries if entry.form in forms]

    def notes(self, *forms: str) -> list[tuple[int, str]]:
        """(line, message) for each malformed directive of ``forms``."""
        return [
            (entry.line,
             f"malformed {entry.form} comment: expected '# repro: "
             f"{entry.form}[{_EXPECTED_BODY[entry.form]}]'")
            for entry in self.malformed if entry.form in forms
        ]


def scan_directives(source: str) -> Directives:
    """Collect the directives of one module's comments."""
    if "repro:" not in source:
        return Directives()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # Unparseable file: the runner reports a SYNTAX finding instead.
        return Directives()
    entries: list[Directive] = []
    malformed: list[Directive] = []
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        line = tok.start[0]
        for match in _DIRECTIVE_RE.finditer(tok.string):
            form, body = match.group("form"), match.group("body")
            well_formed = match.group("close") is not None
            blanket = body is None and form == "noqa"
            if well_formed or blanket:
                entries.append(Directive(form, line, body))
            else:
                malformed.append(Directive(form, line, None))
    return Directives(tuple(entries), tuple(malformed))

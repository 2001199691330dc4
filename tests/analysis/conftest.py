"""The one all-pass lint of ``src`` that the analysis meta-tests share.

Linting the whole tree costs seconds, so it runs once per session. The
clean, budget, timing, scan-once and sharing checks all assert against
this one run instead of linting ``src`` again. ``tokenized`` counts the
directive scans of one test's own lints.
"""

import collections
import io
import time
import tokenize
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.analysis import LintResult, lint_paths, program, registry, runner
from repro.analysis.concurrency import contexts, state

REPO_ROOT = Path(__file__).resolve().parents[2]


@dataclass(frozen=True)
class SrcLint:
    """One ``lint --all`` of ``src``, with what it cost.

    Attributes:
        result: The lint's result.
        wall_s: Wall-clock seconds of the whole ``lint_paths`` call.
        builds: Shared-layer builder name -> calls during the lint.
        tokenized: Source text -> times it was tokenized for its
            ``# repro:`` directives.
    """

    result: LintResult
    wall_s: float
    builds: collections.Counter
    tokenized: collections.Counter

    def timing_s(self, *passes: str) -> float:
        """Seconds the named pass bodies took together."""
        return sum(
            seconds for name, seconds in self.result.timings
            if name in passes
        )


def _counting_tokenizer(seen: collections.Counter):
    """``tokenize.generate_tokens``, counting each source text in ``seen``."""
    real = tokenize.generate_tokens

    def counting(readline):
        text = "".join(iter(readline, ""))
        seen[text] += 1
        return real(io.StringIO(text).readline)

    return counting


@pytest.fixture
def tokenized(monkeypatch) -> collections.Counter:
    """Source text -> number of times it was tokenized."""
    seen: collections.Counter = collections.Counter()
    monkeypatch.setattr(tokenize, "generate_tokens", _counting_tokenizer(seen))
    return seen


@pytest.fixture
def no_package_context(monkeypatch) -> None:
    """Lint without the installed ``repro`` package as index context.

    Indexing the package costs a second or more per lint. Only for
    lints of a small file whose exit code, findings, file count and
    suppressions are the same without it.
    """
    monkeypatch.setattr(runner, "_package_modules", lambda: [])


@pytest.fixture(scope="session")
def src_lint() -> SrcLint:
    """Lint ``src`` once with every pass, counting the shared builds."""
    builds: collections.Counter = collections.Counter()
    scans: collections.Counter = collections.Counter()

    def counted(name, build):
        def wrapper(*args):
            builds[name] += 1
            return build(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for module, name in (
            (registry, "build_index"),
            (program, "build_program"),
            (contexts, "build_contexts"),
            (state, "build_state"),
        ):
            patch.setattr(module, name, counted(name, getattr(module, name)))
        patch.setattr(tokenize, "generate_tokens", _counting_tokenizer(scans))
        started = time.perf_counter()
        result = lint_paths(
            [REPO_ROOT / "src"],
            dimensional=True, concurrency=True, keysound=True,
        )
        wall_s = time.perf_counter() - started
    return SrcLint(result, wall_s, builds, scans)

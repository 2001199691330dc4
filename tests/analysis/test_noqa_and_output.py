"""Suppression comments, rule disabling, and output formats."""

import json
import textwrap

import pytest

from repro.analysis import ALL_RULE_IDS, RULES, lint_source
from repro.analysis.runner import format_json, format_text, validate_disable

FLOAT_EQ = """
    def formula(x):
        return x == 1.0  # repro: noqa[NUM001]
"""

BLANKET = """
    def formula(x):
        return x == 1.0  # repro: noqa
"""


def _lint(snippet, **kwargs):
    return lint_source(textwrap.dedent(snippet), **kwargs)


class TestSuppressions:
    def test_targeted_noqa_suppresses_and_counts(self):
        result = _lint(FLOAT_EQ)
        assert result.ok
        assert result.suppressed == 1

    def test_blanket_noqa_suppresses(self):
        result = _lint(BLANKET)
        assert result.ok
        assert result.suppressed == 1

    def test_noqa_for_other_rule_does_not_suppress(self):
        result = _lint("""
            def formula(x):
                return x == 1.0  # repro: noqa[SPEC001]
        """)
        # NUM001 still fires, and the SPEC001 suppression (which
        # silences nothing) is itself flagged stale.
        assert [f.rule for f in result.findings] == ["LINT001", "NUM001"]
        assert result.suppressed == 0

    def test_unknown_rule_in_noqa_is_reported(self):
        result = _lint("""
            value = 1  # repro: noqa[BOGUS99]
        """)
        assert [f.rule for f in result.findings] == ["NOQA"]

    def test_docstring_mention_is_not_a_suppression(self):
        result = _lint('''
            def formula(x):
                """Docs may say # repro: noqa without effect."""
                return x == 1.0
        ''')
        assert [f.rule for f in result.findings] == ["NUM001"]

    def test_multiple_rules_in_one_comment(self):
        # Both findings anchor on the one-line def, so a single comment
        # can name both rules.
        result = _lint("""
            def formula(x, values=[]): return x == 1.0  # repro: noqa[NUM001, NUM003]
        """)
        assert result.ok
        assert result.suppressed == 2


class TestMalformedNoqa:
    """A ``[`` makes a suppression targeted: a malformed bracket
    suppresses nothing and is reported, never widened to a blanket."""

    @pytest.mark.parametrize("comment", [
        "# repro: noqa[]",
        "# repro: noqa[NUM-001]",
        "# repro: noqa[CP003; NUM001]",
        "# repro: noqa[NUM001",
    ])
    def test_malformed_targeted_noqa_suppresses_nothing(self, comment):
        result = _lint(f"""
            def formula(x):
                return x == 0.1  {comment}
        """)
        assert [f.rule for f in result.findings] == ["NOQA", "NUM001"]
        assert result.suppressed == 0


class TestNoqaHygiene:
    """LINT001: suppressions must suppress something an active pass
    produces."""

    def test_stale_targeted_noqa_is_flagged(self):
        result = _lint("value = 1  # repro: noqa[NUM001]\n")
        (finding,) = result.findings
        assert finding.rule == "LINT001"
        assert "NUM001" in finding.message
        assert "silences no" in finding.message

    def test_live_noqa_is_not_flagged(self):
        assert _lint(FLOAT_EQ).ok

    def test_rules_of_passes_that_did_not_run_are_left_alone(self):
        # A CONC001 suppression cannot be judged stale by a base-only
        # run: the concurrency pass never looked.
        result = _lint("value = 1  # repro: noqa[CONC001]\n")
        assert result.ok

    def test_rules_of_passes_that_ran_are_judged(self):
        result = _lint(
            "value = 1  # repro: noqa[CONC001]\n", concurrency=True,
        )
        (finding,) = result.findings
        assert finding.rule == "LINT001"

    def test_blanket_noqa_needs_the_full_run_to_be_stale(self):
        # A blanket comment waives every rule, so only a run with all
        # passes active can prove it dead.
        source = "value = 1  # repro: noqa\n"
        assert _lint(source).ok
        assert _lint(source, dimensional=True, concurrency=True).ok
        result = _lint(
            source, dimensional=True, concurrency=True, keysound=True,
        )
        (finding,) = result.findings
        assert finding.rule == "LINT001"
        assert "blanket" in finding.message

    def test_lint001_suppression_is_never_stale(self):
        # Waiving the hygiene check is always explicit, never "unused".
        result = _lint(
            "value = 1  # repro: noqa[LINT001]\n",
            dimensional=True, concurrency=True,
        )
        assert result.ok

    def test_lint001_finding_can_be_suppressed(self):
        result = _lint(
            "value = 1  # repro: noqa[NUM001, LINT001]\n"
        )
        assert result.ok
        assert result.suppressed == 1

    def test_disable_lint001(self):
        result = _lint(
            "value = 1  # repro: noqa[NUM001]\n", disable=["LINT001"],
        )
        assert result.ok


class TestDisable:
    def test_disable_skips_rule(self):
        result = _lint(FLOAT_EQ.replace("  # repro: noqa[NUM001]", ""),
                       disable=["NUM001"])
        assert result.ok
        assert result.suppressed == 0

    def test_disable_is_case_insensitive(self):
        result = _lint("x = 1.0 == 1.0\n", disable=["num001"])
        assert result.ok

    def test_unknown_disable_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            validate_disable(["NOPE01"])

    def test_registry_is_consistent(self):
        from repro.analysis.finding import DRIVER_RULE_IDS
        from repro.analysis.rules import CHECKS

        # Per-module check functions plus driver-produced rules (the
        # dimensional pass and IO diagnostics) cover the registry.
        assert set(CHECKS) | DRIVER_RULE_IDS == ALL_RULE_IDS
        assert not set(CHECKS) & DRIVER_RULE_IDS
        assert set(RULES) == ALL_RULE_IDS


class TestOutputFormats:
    def test_json_schema(self):
        result = _lint("x = 1.0 == 1.0\n")
        payload = json.loads(format_json(result))
        assert payload["version"] == 3
        assert payload["passes"] == ["base"]
        assert payload["files_checked"] == 1
        assert payload["suppressed"] == 0
        assert payload["counts"] == {"NUM001": 1}
        (finding,) = payload["findings"]
        assert set(finding) == {"path", "line", "col", "rule", "message"}
        assert finding["rule"] == "NUM001"
        assert finding["line"] == 1

    def test_text_format(self):
        result = _lint("x = 1.0 == 1.0\n")
        text = format_text(result)
        assert "NUM001" in text
        assert text.endswith("1 finding(s) in 1 file(s)")

    def test_text_format_reports_suppressed(self):
        text = format_text(_lint(FLOAT_EQ))
        assert text.endswith("0 finding(s) in 1 file(s), 1 suppressed")

    def test_syntax_error_is_a_finding(self):
        result = _lint("def broken(:\n")
        assert [f.rule for f in result.findings] == ["SYNTAX"]

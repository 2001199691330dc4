"""The shared ``# repro:`` directive table: grammar and scan-once rule."""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_paths
from repro.analysis.directives import Directive, scan_directives
from repro.analysis.runner import iter_python_files

REPO_ROOT = Path(__file__).resolve().parents[2]

#: A target carrying one directive of every form.
MARKED = textwrap.dedent("""
    import threading

    _LOCK = threading.Lock()
    _TALLY = {}  # repro: guarded-by[_LOCK]
    LIMIT = 3  # repro: key-exempt[LIMIT: set once at import]


    def scale(x):  # repro: dim[x: s, return: s]
        return x == 1.0  # repro: noqa[NUM001]
""")

PLAIN = "VALUE = 1\n"


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "marked.py").write_text(MARKED)
    (tmp_path / "plain.py").write_text(PLAIN)
    return tmp_path


class TestScanOnce:
    def test_every_pass_shares_one_scan_per_module(self, src_lint):
        # Every module that carries the marker is scanned once, by
        # whichever pass reads its table first; the rest never.
        texts = [
            path.read_text()
            for path in iter_python_files([REPO_ROOT / "src"])
        ]
        marked = {text for text in texts if "repro:" in text}
        assert dict(src_lint.tokenized) == dict.fromkeys(marked, 1)

    def test_base_only_lint_scans_only_its_targets(self, tree, tokenized):
        lint_paths([tree])
        assert set(tokenized) == {MARKED}


class TestGrammar:
    def test_forms_lines_and_bodies(self):
        table = scan_directives(MARKED)
        assert table.entries == (
            Directive("guarded-by", 5, "_LOCK"),
            Directive("key-exempt", 6, "LIMIT: set once at import"),
            Directive("dim", 9, "x: s, return: s"),
            Directive("noqa", 10, "NUM001"),
        )
        assert table.malformed == ()

    def test_bare_noqa_is_the_blanket_form(self):
        table = scan_directives("x = 1  # repro: noqa -- reason\n")
        assert table.of("noqa") == [Directive("noqa", 1, None)]

    @pytest.mark.parametrize("comment", [
        "# repro: dim cap: f",
        "# repro: guarded-by[_lock",
        "# repro: keyed-by config",
        "# repro: noqa[NUM001",
    ])
    def test_form_without_a_closed_bracket_is_malformed(self, comment):
        table = scan_directives(f"x = 1  {comment}\n")
        assert table.entries == ()
        ((line, message),) = table.notes(
            "noqa", "dim", "guarded-by", "keyed-by",
        )
        assert line == 1
        assert message.startswith("malformed ")

    def test_only_real_comments_count(self):
        table = scan_directives(
            'DOC = "# repro: noqa[NUM001] # repro: dim cap: f"\n'
        )
        assert table.entries == ()
        assert table.malformed == ()

    def test_two_directives_in_one_comment(self):
        table = scan_directives(
            "x = 1  # repro: dim[x: s]  # repro: noqa[DIM003]\n"
        )
        assert [d.form for d in table.entries] == ["dim", "noqa"]

    def test_text_without_the_marker_is_not_tokenized(self, tokenized):
        assert scan_directives(PLAIN).entries == ()
        assert not tokenized

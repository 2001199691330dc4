"""Cache-purity rules (CP001-CP003): seeded violations and clean code."""

import textwrap

import pytest

from repro.analysis import lint_source


def _rules(result):
    return [f.rule for f in result.findings]


def _lint(*parts):
    return lint_source("\n".join(textwrap.dedent(p) for p in parts))


# A minimal self-contained memoized function, mirroring the
# repro.fastpath idiom the index recognizes.
MEMO_PREAMBLE = """
    from repro import fastpath

    _MEMO = fastpath.Memo("m")
"""


class TestCp001Hashability:
    def test_mutable_annotation_is_flagged(self):
        result = _lint(MEMO_PREAMBLE, """
            def solve(points: list) -> float:
                return _MEMO.get_or_compute(tuple(points), lambda: 1.0)
        """)
        assert "CP001" in _rules(result)

    def test_subscripted_mutable_annotation_is_flagged(self):
        result = _lint(MEMO_PREAMBLE, """
            def solve(points: dict[str, float]) -> float:
                return _MEMO.get_or_compute(1, lambda: 1.0)
        """)
        assert "CP001" in _rules(result)

    def test_mutable_default_is_flagged(self):
        result = _lint(MEMO_PREAMBLE, """
            def solve(spec, weights={}):
                return _MEMO.get_or_compute(spec, lambda: weights)
        """)
        assert "CP001" in _rules(result)

    def test_frozen_parameters_pass(self):
        result = _lint(MEMO_PREAMBLE, """
            def solve(spec: tuple, penalty: float = 1.0) -> float:
                return _MEMO.get_or_compute(spec, lambda: penalty)
        """)
        assert "CP001" not in _rules(result)

    def test_unmemoized_function_not_checked(self):
        result = _lint("""
            def helper(points: list) -> int:
                return len(points)
        """)
        assert "CP001" not in _rules(result)


class TestCp002Purity:
    def test_global_write_is_flagged(self):
        result = _lint(MEMO_PREAMBLE, """
            _COUNT = 0

            def solve(spec):
                global _COUNT
                _COUNT += 1
                return _MEMO.get_or_compute(spec, lambda: 1.0)
        """)
        assert "CP002" in _rules(result)

    def test_argument_attribute_write_is_flagged(self):
        result = _lint(MEMO_PREAMBLE, """
            def solve(spec):
                spec.entries = 0
                return _MEMO.get_or_compute(spec, lambda: 1.0)
        """)
        assert "CP002" in _rules(result)

    def test_argument_mutating_method_is_flagged(self):
        result = _lint(MEMO_PREAMBLE, """
            def solve(items):
                items.append(1)
                return _MEMO.get_or_compute(tuple(items), lambda: 1.0)
        """)
        assert "CP002" in _rules(result)

    def test_local_mutation_is_fine(self):
        result = _lint(MEMO_PREAMBLE, """
            def solve(spec):
                evaluated = {}
                evaluated[spec] = 1
                return _MEMO.get_or_compute(spec, lambda: evaluated[spec])
        """)
        assert "CP002" not in _rules(result)

    def test_self_attribute_write_is_fine(self):
        # Counter bookkeeping on self (the Memo idiom itself) is not an
        # argument mutation.
        result = _lint(MEMO_PREAMBLE, """
            class Solver:
                def solve(self, spec):
                    self.calls = self.calls + 1
                    return _MEMO.get_or_compute(spec, lambda: 1.0)
        """)
        assert "CP002" not in _rules(result)

    def test_key_building_function_is_covered(self):
        # Functions keyed through stable_hash are part of the contract
        # even when the memo table lives elsewhere.
        result = _lint("""
            from repro.fastpath import stable_hash

            def config_key_for(config):
                config.name = "x"
                return stable_hash(config)
        """)
        assert "CP002" in _rules(result)


class TestCp003ReturnMutation:
    def test_attribute_write_through_alias_is_flagged(self):
        result = _lint(MEMO_PREAMBLE, """
            def build_thing(spec):
                return _MEMO.get_or_compute(spec, lambda: object())

            def caller(spec):
                thing = build_thing(spec)
                thing.area = 0.0
                return thing
        """)
        assert "CP003" in _rules(result)

    def test_mutating_method_on_alias_is_flagged(self):
        result = _lint(MEMO_PREAMBLE, """
            def build_thing(spec):
                return _MEMO.get_or_compute(spec, lambda: [])

            def caller(spec):
                banks = build_thing(spec)
                banks.append(None)
                return banks
        """)
        assert "CP003" in _rules(result)

    def test_direct_result_mutation_is_flagged(self):
        result = _lint(MEMO_PREAMBLE, """
            def build_thing(spec):
                return _MEMO.get_or_compute(spec, lambda: object())

            def caller(spec):
                build_thing(spec).height = 1.0
        """)
        assert "CP003" in _rules(result)

    @pytest.mark.parametrize("call", [
        "popleft()", "appendleft(None)", "move_to_end(None)",
    ])
    def test_deque_and_ordered_dict_mutators_are_flagged(self, call):
        result = _lint(MEMO_PREAMBLE, f"""
            def build_thing(spec):
                return _MEMO.get_or_compute(spec, lambda: object())

            def caller(spec):
                build_thing(spec).{call}
        """)
        assert "CP003" in _rules(result)

    def test_reads_and_reassignment_pass(self):
        result = _lint(MEMO_PREAMBLE, """
            def build_thing(spec):
                return _MEMO.get_or_compute(spec, lambda: object())

            def caller(spec):
                thing = build_thing(spec)
                area = thing.area
                thing = area
                return thing
        """)
        assert "CP003" not in _rules(result)

    def test_alias_does_not_leak_across_scopes(self):
        result = _lint(MEMO_PREAMBLE, """
            def build_thing(spec):
                return _MEMO.get_or_compute(spec, lambda: object())

            def creator(spec):
                thing = build_thing(spec)
                return thing

            def unrelated(thing):
                thing.area = 1.0
        """)
        assert "CP003" not in _rules(result)


class TestSeededBuildArrayMutation:
    """Acceptance seed: mutating the return of the real build_array."""

    def test_mutating_build_array_return_is_caught(self, tmp_path):
        from repro.analysis import lint_paths

        offender = tmp_path / "offender.py"
        offender.write_text(textwrap.dedent("""
            from repro.array import build_array

            def shave_area(tech, spec):
                array = build_array(tech, spec)
                array.area = 0.0
                return array
        """))
        result = lint_paths([offender])
        assert [f.rule for f in result.findings] == ["CP003"]
        assert result.findings[0].line == 6

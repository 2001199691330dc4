"""Dimensional analysis: lattice, seeds, DIM rules, fixpoint, budget."""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro import units
from repro.analysis import lint_paths, lint_source
from repro.analysis.context import ModuleSource
from repro.analysis.dimensional import (
    ANY,
    CONSTANT_DIMS,
    DIMENSIONLESS,
    POLY,
    UNKNOWN,
    format_dim,
    parse_unit_expr,
    solve_fixpoint,
    suffix_dim,
)
from repro.analysis.dimensional.dim import (
    AMPERE,
    COULOMB,
    FARAD,
    HERTZ,
    JOULE,
    KELVIN,
    METER,
    OHM,
    SECOND,
    SQUARE_METER,
    VOLT,
    WATT,
    compatible,
    div,
    join,
    mul,
    power,
    sqrt,
)
from repro.analysis.fixpoint import MAX_ROUNDS
from repro.analysis.program import build_program
from repro.cli import main

#: Full-tree analyzer budget (satellite requirement: < 10 s), asserted so
#: the fixpoint pass cannot silently become the slowest CI step.
FULL_TREE_BUDGET_S = 10.0


def _result(snippet):
    return lint_source(textwrap.dedent(snippet), dimensional=True)


def _rules(snippet):
    return [f.rule for f in _result(snippet).findings]


def _dim_rules(snippet):
    """Only the dimensional findings (other rule families may also fire)."""
    return [r for r in _rules(snippet) if r.startswith("DIM")]


def _messages(snippet, rule):
    return [
        f.message for f in _result(snippet).findings if f.rule == rule
    ]


class TestLattice:
    def test_derived_unit_identities(self):
        assert mul(FARAD, VOLT) == COULOMB          # Q = C * V
        assert mul(OHM, FARAD) == SECOND            # tau = R * C
        assert div(JOULE, SECOND) == WATT           # P = E / t
        assert mul(mul(FARAD, VOLT), VOLT) == JOULE  # E = C * V^2
        assert div(VOLT, AMPERE) == OHM             # R = V / I
        assert div(DIMENSIONLESS, SECOND) == HERTZ

    def test_power_and_sqrt(self):
        assert power(METER, 2) == SQUARE_METER
        assert sqrt(SQUARE_METER) == METER
        # An odd exponent has no integer square root: stay silent.
        assert sqrt(METER) is UNKNOWN
        assert sqrt(POLY) is POLY

    def test_poly_literals_are_scalars(self):
        assert mul(POLY, WATT) == WATT
        assert div(WATT, POLY) == WATT
        assert join(POLY, WATT) == WATT

    def test_join_lattice_order(self):
        assert join(UNKNOWN, WATT) == WATT
        assert join(WATT, WATT) == WATT
        assert join(WATT, JOULE) is ANY
        assert join(ANY, WATT) is ANY

    def test_compatibility_is_conservative(self):
        assert not compatible(WATT, JOULE)
        assert compatible(WATT, WATT)
        assert compatible(UNKNOWN, WATT)
        assert compatible(POLY, WATT)
        assert compatible(ANY, JOULE)

    def test_format_dim_prefers_named_units(self):
        assert format_dim(WATT) == "W"
        assert format_dim(div(FARAD, METER)) == "F/m"
        assert format_dim(COULOMB) == "A*s"
        assert format_dim(UNKNOWN) == "unknown"


class TestParseUnitExpr:
    @pytest.mark.parametrize("text, expected", [
        ("w", WATT),
        ("W", WATT),
        ("1", DIMENSIONLESS),
        ("f/m", div(FARAD, METER)),
        ("ohm*m", mul(OHM, METER)),
        ("s/m^2", div(SECOND, SQUARE_METER)),
        ("j / bit", div(JOULE, parse_unit_expr("bit"))),
        ("m^2", SQUARE_METER),
    ])
    def test_valid_expressions(self, text, expected):
        assert parse_unit_expr(text) == expected

    @pytest.mark.parametrize("text", ["furlong", "", "w**2", "m^x", "w//s"])
    def test_malformed_expressions_raise(self, text):
        with pytest.raises(ValueError):
            parse_unit_expr(text)


class TestSuffixSeeds:
    def test_canonical_suffixes(self):
        assert suffix_dim("delay_s") == SECOND
        assert suffix_dim("cap_f") == FARAD
        assert suffix_dim("tdp_w") == WATT

    def test_longest_suffix_wins(self):
        assert suffix_dim("area_m2") == SQUARE_METER
        assert suffix_dim("pitch_m") == METER

    def test_module_constants_match_case_insensitively(self):
        assert suffix_dim("DEFAULT_TEMPERATURE_K") == KELVIN

    def test_rate_and_conversion_names_are_exempt(self):
        assert suffix_dim("reads_per_s") is None
        assert suffix_dim("celsius_to_k") is None
        assert suffix_dim("c_wire_per_m") is None

    def test_plain_names_have_no_pin(self):
        assert suffix_dim("count") is None
        assert suffix_dim("ohm") is None  # suffix needs an underscore


class TestUnitsSeedTable:
    """`repro.units` and the analyzer's seed table agree member-for-member."""

    def test_every_numeric_constant_is_seeded(self):
        numeric = {
            name
            for name, value in vars(units).items()
            if not name.startswith("_")
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        }
        assert set(CONSTANT_DIMS) == numeric

    def test_new_helper_constants(self):
        assert units.KOHM == pytest.approx(1e3)
        assert units.MW == pytest.approx(1e-3)
        assert units.UW == pytest.approx(1e-6)
        assert units.AF == pytest.approx(1e-18)
        assert units.MV == pytest.approx(1e-3)

    def test_seeded_dimensions_are_sensible(self):
        assert CONSTANT_DIMS["KOHM"] == OHM
        assert CONSTANT_DIMS["MW"] == WATT
        assert CONSTANT_DIMS["AF"] == FARAD
        assert CONSTANT_DIMS["MV"] == VOLT
        assert CONSTANT_DIMS["EPSILON_0"] == div(FARAD, METER)
        assert CONSTANT_DIMS["BOLTZMANN_EV"] == div(JOULE, KELVIN)


class TestDim001IncompatibleOperands:
    def test_adding_seconds_to_meters_is_flagged(self):
        assert "DIM001" in _rules("""
            def total(delay_s, length_m):
                return delay_s + length_m
        """)

    def test_comparing_watts_to_joules_is_flagged(self):
        assert "DIM001" in _rules("""
            def over_budget(power_w, energy_j):
                return power_w > energy_j
        """)

    def test_message_carries_the_inference_chain(self):
        messages = _messages("""
            def total(delay_s, length_m):
                return delay_s + length_m
        """, "DIM001")
        assert len(messages) == 1
        assert "delay_s:s" in messages[0]
        assert "length_m:m" in messages[0]

    def test_matching_dimensions_pass(self):
        assert _rules("""
            def total(decode_s, wordline_s):
                return decode_s + wordline_s
        """) == []

    def test_literals_adapt_to_either_side(self):
        assert _rules("""
            def derate(delay_s):
                return 1.7 * delay_s + 0.0
        """) == []


class TestDim002ReturnPinMismatch:
    def test_pinned_return_with_wrong_dimension_is_flagged(self):
        messages = _messages("""
            def energy(cap_f, vdd_v):  # repro: dim[return: j]
                return cap_f * vdd_v
        """, "DIM002")
        assert len(messages) == 1
        assert "'J'" in messages[0]
        assert "'A*s'" in messages[0]
        assert "cap_f:F * vdd_v:V" in messages[0]

    def test_pinned_return_with_right_dimension_passes(self):
        assert _rules("""
            def energy(cap_f, vdd_v):  # repro: dim[return: j]
                return cap_f * vdd_v * vdd_v
        """) == []


class TestDim003SuffixContradiction:
    def test_mis_suffixed_assignment_is_flagged(self):
        messages = _messages("""
            def power(cap_f, vdd_v):
                power_w = cap_f * vdd_v
                return power_w
        """, "DIM003")
        assert len(messages) == 1
        assert "'W'" in messages[0]
        assert "'A*s'" in messages[0]

    def test_issue_example_rc_times_frequency_not_time(self):
        # The motivating example: cap * res * freq is dimensionless.
        assert "DIM003" in _rules("""
            def tau(cap_f, res_ohm, freq_hz):
                delay_s = cap_f * res_ohm * freq_hz
                return delay_s
        """)

    def test_correctly_suffixed_assignment_passes(self):
        assert _rules("""
            def tau(cap_f, res_ohm):
                delay_s = cap_f * res_ohm
                return delay_s
        """) == []


class TestDim004CallBoundary:
    def test_wrong_dimension_at_a_pinned_parameter(self):
        messages = _messages("""
            def stage(delay_s):
                return 2.0 * delay_s

            def caller(cap_f):
                return stage(cap_f)
        """, "DIM004")
        assert len(messages) == 1
        assert "'s'" in messages[0]
        assert "'F'" in messages[0]

    def test_math_exp_of_a_dimensioned_quantity(self):
        assert "DIM004" in _rules("""
            import math

            def leak(vth_v):
                return math.exp(vth_v)
        """)

    def test_dimensioned_exponent(self):
        assert "DIM004" in _rules("""
            def scale(base, delay_s):
                return base ** delay_s
        """)

    def test_dimensionless_ratios_pass(self):
        assert _dim_rules("""
            import math

            def leak(vth_v, thermal_v):
                return math.exp(vth_v / thermal_v)
        """) == []

    def test_matching_call_passes(self):
        assert _rules("""
            def stage(delay_s):
                return 2.0 * delay_s

            def caller(fo4_s):
                return stage(fo4_s)
        """) == []


class TestDimNoteMalformedAnnotations:
    def test_unknown_unit_is_reported(self):
        messages = _messages("""
            def f(x):  # repro: dim[x: furlong]
                return x
        """, "DIMNOTE")
        assert len(messages) == 1
        assert "furlong" in messages[0]

    def test_entry_without_colon_is_reported(self):
        assert "DIMNOTE" in _rules("""
            x = 1.0  # repro: dim[broken]
        """)

    def test_annotations_inside_strings_are_ignored(self):
        assert _rules('''
            DOC = """Annotate with # repro: dim[x: furlong] comments."""
        ''') == []

    @pytest.mark.parametrize("comment", [
        "# repro: dim cap: f",
        "# repro: dim[cap: f",
    ])
    def test_dim_without_a_closed_bracket_is_reported(self, comment):
        messages = _messages(f"""
            cap = 1.0  {comment}
        """, "DIMNOTE")
        assert messages == [
            "malformed dim comment: expected '# repro: dim[name: unit]'"
        ]


class TestNoqaIntegration:
    def test_dim_findings_respect_noqa(self):
        result = _result("""
            def power(cap_f, vdd_v):
                power_w = cap_f * vdd_v  # repro: noqa[DIM003]
                return power_w
        """)
        assert result.findings == ()
        assert result.suppressed == 1

    def test_disable_flag_drops_dim_rules(self):
        result = lint_source(textwrap.dedent("""
            def power(cap_f, vdd_v):
                power_w = cap_f * vdd_v
                return power_w
        """), disable=["DIM003"], dimensional=True)
        assert result.findings == ()


class TestFixpoint:
    def _project(self, snippet):
        source = textwrap.dedent(snippet)
        module = ModuleSource(
            path="<fixpoint>", source=source, tree=ast.parse(source)
        )
        return build_program([module])

    def test_recursive_chain_converges_below_the_cap(self):
        project = self._project("""
            def total(stages, unit_s):
                if stages <= 1:
                    return unit_s
                return unit_s + total(stages - 1, unit_s)
        """)
        assert solve_fixpoint(project) < MAX_ROUNDS
        total = next(
            f for f in project.functions.values()
            if f.node.name == "total"
        )
        assert total.return_dim == SECOND

    def test_mutual_recursion_terminates_cleanly(self):
        assert _rules("""
            def ping(delay_s):
                return pong(delay_s)

            def pong(delay_s):
                return ping(delay_s) + delay_s
        """) == []

    def test_facts_flow_through_unsuffixed_helpers(self):
        # `relay` has no suffix pin anywhere; its dimension facts come
        # entirely from call-site joins solved to a fixpoint.
        assert "DIM003" in _rules("""
            def relay(value):
                return relay_inner(value)

            def relay_inner(value):
                return 2.0 * value

            def caller(cap_f):
                power_w = relay(cap_f)
                return power_w
        """)

    def test_module_constants_resolve_through_any_import_depth(
        self, tmp_path,
    ):
        # c -> b -> a, read inside a function: a module's constants
        # must be final before any body reads them, at any depth.
        modules = {
            "c.py": "from repro.units import NM\n\nBASE_PITCH = 3.0 * NM\n",
            "b.py": "from c import BASE_PITCH\n\n"
                    "DOUBLE_PITCH = 2.0 * BASE_PITCH\n",
            "a.py": "from b import DOUBLE_PITCH\n\n"
                    "TRIPLE = 1.5 * DOUBLE_PITCH\n\n\n"
                    "def stage():\n    delay_s = TRIPLE\n    return delay_s\n",
            "d.py": "from c import BASE_PITCH\n\n\n"
                    "def stage():\n    delay_s = 2.0 * BASE_PITCH\n"
                    "    return delay_s\n",
        }
        for name, text in modules.items():
            (tmp_path / name).write_text(text)
        result = lint_paths([tmp_path], dimensional=True)
        assert sorted(
            (Path(f.path).name, f.line, f.rule) for f in result.findings
        ) == [("a.py", 7, "DIM003"), ("d.py", 5, "DIM003")]


class TestSeededGateEnergyBug:
    """The acceptance fixture: `c * v` instead of `c * v**2`."""

    BUGGY = """
        SHORT_CIRCUIT_FRACTION = 0.10

        def switching_energy(self_cap_f, load_cap_f, vdd_v):
            c_total_f = self_cap_f + load_cap_f
            energy_j = (1.0 + SHORT_CIRCUIT_FRACTION) * c_total_f * vdd_v
            return energy_j
    """

    FIXED = """
        SHORT_CIRCUIT_FRACTION = 0.10

        def switching_energy(self_cap_f, load_cap_f, vdd_v):
            c_total_f = self_cap_f + load_cap_f
            energy_j = (
                (1.0 + SHORT_CIRCUIT_FRACTION) * c_total_f * vdd_v * vdd_v
            )
            return energy_j
    """

    def test_dropped_vdd_factor_is_caught_with_a_chain(self):
        messages = _messages(self.BUGGY, "DIM003")
        assert len(messages) == 1
        # The finding explains the mismatch and shows the derivation.
        assert "'J'" in messages[0]
        assert "'A*s'" in messages[0]
        assert "c_total_f:F" in messages[0]
        assert "vdd_v:V" in messages[0]
        assert "SHORT_CIRCUIT_FRACTION" in messages[0]

    def test_summing_the_buggy_term_into_joules_raises_dim001(self):
        assert "DIM001" in _rules("""
            def total_energy(cap_f, vdd_v, base_j):
                return base_j + cap_f * vdd_v
        """)

    def test_correct_formula_is_clean(self):
        assert _rules(self.FIXED) == []


class TestIO001UnreadableFiles:
    @pytest.mark.usefixtures("no_package_context")
    def test_undecodable_file_emits_a_finding(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b"\xff\xfe not utf-8 \xff")
        result = lint_paths([bad])
        assert [f.rule for f in result.findings] == ["IO001"]
        assert "could not be read" in result.findings[0].message
        assert result.files_checked == 1

    @pytest.mark.usefixtures("no_package_context")
    def test_cli_reports_io001_and_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b"\xff\xfe not utf-8 \xff")
        assert main(["lint", str(bad)]) == 1
        assert "IO001" in capsys.readouterr().out


class TestCliDimensional:
    @pytest.mark.usefixtures("no_package_context")
    def test_flag_enables_the_pass(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent("""
            def power(cap_f, vdd_v):
                power_w = cap_f * vdd_v
                return power_w
        """))
        assert main(["lint", str(path)]) == 0  # off by default
        assert main(["lint", "--dimensional", str(path)]) == 1
        out = capsys.readouterr().out
        assert "DIM003" in out

    @pytest.mark.usefixtures("no_package_context")
    def test_json_output_counts_dim_findings(self, tmp_path, capsys):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent("""
            def power(cap_f, vdd_v):
                power_w = cap_f * vdd_v
                return power_w
        """))
        code = main([
            "lint", "--dimensional", "--format", "json", str(path)
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"DIM003": 1}


class TestMetaDimensionalClean:
    """The shipped tree satisfies its own dimensional analysis — fast."""

    def test_src_tree_is_dimension_clean_within_budget(self, src_lint):
        assert src_lint.result.findings == ()
        # An over-estimate of a base + dimensional lint: it still counts
        # the shared layers that lint would not build.
        elapsed = src_lint.wall_s - src_lint.timing_s(
            "concurrency", "keysound",
        )
        assert elapsed < FULL_TREE_BUDGET_S

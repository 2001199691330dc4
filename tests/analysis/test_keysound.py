"""Cache-key soundness pass: sites, effects, KEY/DET rules, seeded bugs.

The seeded-bug classes re-create the staleness hazards this repo's
caching layers could actually grow — a memoized solver reading a tech
constant left out of its key, a timing call leaking into a cached
computation, a decorator-wrapped memo escaping the call graph — and
assert the corresponding rule catches them *with the inference chain
naming the state and the path through the call graph*, then show the
repaired (or declared) form is clean. ``TestOwnTreeClean`` pins the
acceptance property: ``lint --all`` over ``src/`` is clean within the
wall-clock budget.
"""

import ast
import textwrap

from repro.analysis import lint_source
from repro.analysis.concurrency import build_concurrency_model
from repro.analysis.context import ModuleSource
from repro.analysis.directives import scan_directives
from repro.analysis.keysound import (
    analyze_keysound,
    build_keysound_model,
    key_table,
)

#: Whole-tree budget for the full four-pass run (satellite: < 15 s).
ALL_PASSES_BUDGET_S = 15.0


def _modules(*pairs):
    infos = []
    for path, snippet in pairs:
        source = textwrap.dedent(snippet)
        infos.append(ModuleSource(
            path=path, source=source, tree=ast.parse(source),
        ))
    return infos


def _run(*pairs, disabled=frozenset()):
    """Findings of the keysound pass over in-memory modules."""
    infos = _modules(*pairs)
    model, state = build_concurrency_model(infos)
    results = analyze_keysound(infos, model, state, disabled=disabled)
    return [f for found in results.values() for f in found]


def _rules(*pairs):
    return sorted({f.rule for f in _run(*pairs)})


def _model(*pairs):
    infos = _modules(*pairs)
    model, state = build_concurrency_model(infos)
    return build_keysound_model(model, state)


# A mutable module "tech constant" plus a memoized solver that reads it
# through a helper — the canonical stale-cache bug the pass exists for.
TECH = """
    TECH_NODE_NM = 90

    def set_tech_node(nm):
        global TECH_NODE_NM
        TECH_NODE_NM = nm

    def gate_delay_s(fanout):
        return TECH_NODE_NM * 1e-12 * fanout
"""

SOLVER_BUGGY = """
    from tech import gate_delay_s

    def solve(fanout):
        return _MEMO.get_or_compute(
            ("solve", fanout),
            lambda: gate_delay_s(fanout),
        )
"""


class TestSiteDiscovery:
    def test_get_or_compute_site(self):
        sites, _, _, _ = _model(("solver.py", """
            def solve(width, load):
                return _MEMO.get_or_compute(
                    (width, load), lambda: width * load,
                )
        """))
        (site,) = sites
        assert site.kind == "memo"
        assert site.cache_name == "_MEMO.get_or_compute"
        assert site.key_names == frozenset({"width", "load"})
        assert not site.key_opaque

    def test_lru_cache_params_are_the_key(self):
        sites, _, _, _ = _model(("mod.py", """
            import functools

            @functools.lru_cache(maxsize=None)
            def area(width, height):
                return width * height
        """))
        (site,) = sites
        assert site.kind == "lru"
        assert site.key_names == frozenset({"width", "height"})
        assert site.compute and site.compute[0].short == "area"

    def test_cached_property_site(self):
        sites, _, _, _ = _model(("mod.py", """
            from functools import cached_property

            class Unit:
                @cached_property
                def energy(self):
                    return 1.0
        """))
        (site,) = sites
        assert site.kind == "lru"
        assert "cached_property" in site.cache_name

    def test_cache_put_traces_the_producer_through_zip(self):
        sites, _, _, _ = _model(("engine.py", """
            def evaluate(cfg):
                return cfg * 2

            def run(keys, cfgs, result_cache):
                records = [evaluate(c) for c in cfgs]
                for key, record in zip(keys, records):
                    result_cache.put(key, record)
                return records
        """))
        (site,) = sites
        assert site.kind == "cache-put"
        assert site.key_opaque  # bare key parameter: untraceable
        assert site.compute and site.compute[0].short == "evaluate"


    def test_memo_put_after_a_lookup_is_a_site(self):
        findings = _run(("serve.py", """
            STYLE = {"indent": 2}

            def render(cfg):
                return cfg * STYLE["indent"]

            def answer(cfg, report_memo):
                text = report_memo.lookup(cfg)
                if text is None:
                    text = render(cfg)
                    report_memo.put(cfg, text)
                return text

            def restyle(width):
                STYLE["indent"] = width
        """))
        (finding,) = findings
        assert finding.rule == "KEY001"
        assert "report_memo.put" in finding.message
        assert "serve.STYLE" in finding.message


class TestSeededStaleCacheBug:
    def test_key001_fires_with_the_inference_chain(self):
        findings = _run(("tech.py", TECH), ("solver.py", SOLVER_BUGGY))
        (finding,) = [f for f in findings if f.rule == "KEY001"]
        assert finding.path == "solver.py"
        assert "tech.TECH_NODE_NM" in finding.message
        # The chain names the read site and the call-graph hop.
        assert "tech.py:" in finding.message
        assert "gate_delay_s" in finding.message
        assert "reached via" in finding.message

    def test_widening_the_key_clears_it(self):
        fixed = """
            import tech
            from tech import gate_delay_s

            def solve(fanout):
                return _MEMO.get_or_compute(
                    ("solve", fanout, tech.TECH_NODE_NM),
                    lambda: gate_delay_s(fanout),
                )
        """
        assert _rules(("tech.py", TECH), ("solver.py", fixed)) == []

    def test_keyed_by_declaration_clears_it(self):
        declared = """
            from tech import gate_delay_s

            def solve(fanout):
                return _MEMO.get_or_compute(
                    # repro: keyed-by[TECH_NODE_NM]
                    ("solve", fanout),
                    lambda: gate_delay_s(fanout),
                )
        """
        assert _rules(("tech.py", TECH), ("solver.py", declared)) == []

    def test_definition_site_exemption_clears_it_project_wide(self):
        exempt_tech = TECH.replace(
            "TECH_NODE_NM = 90",
            "TECH_NODE_NM = 90"
            "  # repro: key-exempt[TECH_NODE_NM: set once at startup]",
        )
        assert _rules(
            ("tech.py", exempt_tech), ("solver.py", SOLVER_BUGGY),
        ) == []

    def test_unwritten_global_is_a_frozen_constant(self):
        frozen_tech = """
            TECH_NODE_NM = 90

            def gate_delay_s(fanout):
                return TECH_NODE_NM * 1e-12 * fanout
        """
        assert _rules(
            ("tech.py", frozen_tech), ("solver.py", SOLVER_BUGGY),
        ) == []

    def test_lru_cache_reading_mutable_global(self):
        findings = _run(("mod.py", """
            import functools

            SCALE = 1.0

            def set_scale(value):
                global SCALE
                SCALE = value

            @functools.lru_cache
            def area(width):
                return width * SCALE
        """))
        (finding,) = [f for f in findings if f.rule == "KEY001"]
        assert "mod.SCALE" in finding.message


class TestOverKeying:
    def test_key002_fires_for_a_never_read_component(self):
        findings = _run(("mod.py", """
            def calc(a):
                return a + 1

            def solve(a, b):
                return _MEMO.get_or_compute((a, b), lambda: calc(a))
        """))
        (finding,) = [f for f in findings if f.rule == "KEY002"]
        assert "'b'" in finding.message
        assert "never reads" in finding.message

    def test_attribute_projection_is_not_over_keying(self):
        # record.key stands in for a content hash of the config the
        # compute actually reads — the serve-layer idiom.
        findings = _run(("serve.py", """
            def render(config, depth):
                return str(config) * depth

            def fetch(record, config, depth):
                return _MEMO.get_or_compute(
                    (record.key, depth),
                    lambda: render(config, depth),
                )
        """))
        assert [f for f in findings if f.rule == "KEY002"] == []

    def test_vararg_packed_key_is_opaque(self):
        findings = _run(("mod.py", """
            def solve(*args):
                return _MEMO.get_or_compute(
                    ("k", args), lambda: len("x"),
                )
        """))
        assert [f for f in findings if f.rule == "KEY002"] == []

    def test_keyed_by_waives_key002(self):
        findings = _run(("mod.py", """
            def calc(a):
                return a + 1

            def solve(a, b):
                return _MEMO.get_or_compute(
                    # repro: keyed-by[b]
                    (a, b), lambda: calc(a),
                )
        """))
        assert [f for f in findings if f.rule == "KEY002"] == []


class TestDeterminism:
    def test_det001_direct_time_read(self):
        findings = _run(("mod.py", """
            import time

            def profile(cfg):
                return _MEMO.get_or_compute(
                    cfg, lambda: time.time(),
                )
        """))
        (finding,) = [f for f in findings if f.rule == "DET001"]
        assert "time.time" in finding.message

    def test_det001_transitive_through_a_helper(self):
        findings = _run(("mod.py", """
            import random

            def jitter(x):
                return x + random.random()

            def solve(cfg):
                return _MEMO.get_or_compute(cfg, lambda: jitter(cfg))
        """))
        (finding,) = [f for f in findings if f.rule == "DET001"]
        assert "randomness" in finding.message
        assert "reached via" in finding.message

    def test_det001_unsorted_set_iteration(self):
        findings = _run(("mod.py", """
            def order(cfg):
                total = 0
                for item in {"a", "b", "c"}:
                    total += len(item)
                return total

            def solve(cfg):
                return _MEMO.get_or_compute(cfg, lambda: order(cfg))
        """))
        (finding,) = [f for f in findings if f.rule == "DET001"]
        assert "unsorted set" in finding.message

    def test_det001_key_derivation_function(self):
        findings = _run(("hashing.py", """
            import time

            def stable_hash(obj):
                return (id(obj), time.time_ns())
        """))
        (finding,) = [f for f in findings if f.rule == "DET001"]
        assert "key-derivation" in finding.message
        assert "stable_hash" in finding.message

    def test_clean_compute_has_no_findings(self):
        findings = _run(("mod.py", """
            def solve(cfg):
                return _MEMO.get_or_compute(cfg, lambda: cfg * 2)
        """))
        assert findings == []

    def test_det002_cached_computation_mutates_module_state(self):
        findings = _run(("mod.py", """
            _SEEN = []

            def record(x):
                _SEEN.append(x)
                return x * 2

            def solve(x):
                return _MEMO.get_or_compute(x, lambda: record(x))
        """))
        (finding,) = [f for f in findings if f.rule == "DET002"]
        assert "mod._SEEN" in finding.message
        assert "cache hit" in finding.message

    def test_det002_exemption_with_reason(self):
        findings = _run(("mod.py", """
            _SEEN = []

            def record(x):
                _SEEN.append(x)
                return x * 2

            def solve(x):
                return _MEMO.get_or_compute(
                    # repro: key-exempt[_SEEN: telemetry only]
                    x, lambda: record(x),
                )
        """))
        assert [f for f in findings if f.rule == "DET002"] == []


class TestDeclarationGrammar:
    def test_exemption_without_reason_is_keynote(self):
        (finding,) = _run(("mod.py", """
            VALUE = 1  # repro: key-exempt[VALUE]
        """))
        assert finding.rule == "KEYNOTE"
        assert "carries no reason" in finding.message

    def test_unattached_declaration_is_keynote(self):
        (finding,) = _run(("mod.py", """
            def helper(x):
                # repro: keyed-by[x]
                return x
        """))
        assert finding.rule == "KEYNOTE"
        assert "not attached" in finding.message

    def test_keyed_by_on_a_definition_is_keynote(self):
        (finding,) = _run(("mod.py", """
            VALUE = 1  # repro: keyed-by[VALUE]
        """))
        assert finding.rule == "KEYNOTE"
        assert "not a definition" in finding.message

    def test_malformed_comment_is_keynote(self):
        (finding,) = _run(("mod.py", """
            VALUE = 1  # repro: key-exempt VALUE because reasons
        """))
        assert finding.rule == "KEYNOTE"
        assert "malformed" in finding.message

    def test_parse_collects_names_and_reasons(self):
        comments = key_table(scan_directives(
            "x = 1  # repro: keyed-by[alpha, beta]\n"
            "y = 2  # repro: key-exempt[gamma: set once at import]\n"
        ))
        assert comments.keyed_by[1] == {"alpha", "beta"}
        assert comments.exempt[2] == {"gamma": "set once at import"}
        assert comments.errors == []

    def test_strings_that_look_like_comments_do_not_match(self):
        comments = key_table(scan_directives(
            'text = "# repro: keyed-by[fake]"\n'
        ))
        assert comments.keyed_by == {}


class TestDecoratorAndPartialResolution:
    # Satellite bugfix: a decorator-wrapped memoized function used to
    # escape the call graph entirely — the wrapper's compute callback
    # was an unresolvable closure parameter.

    DECORATED = """
        TABLE = {}

        def set_entry(key, value):
            TABLE[key] = value

        def memoize(fn):
            def wrapper(*args):
                return _MEMO.get_or_compute(
                    ("wrapped", args),
                    lambda: fn(*args),
                )
            return wrapper

        @memoize
        def lookup(x):
            return TABLE[x]
    """

    def test_decorated_function_no_longer_escapes_analysis(self):
        findings = _run(("mod.py", self.DECORATED))
        (finding,) = [f for f in findings if f.rule == "KEY001"]
        assert "mod.TABLE" in finding.message
        assert "lookup" in finding.message  # resolved through @memoize

    def test_decorator_binding_is_recorded(self):
        infos = _modules(("mod.py", self.DECORATED))
        model, _ = build_concurrency_model(infos)
        bound = model.program.decorated.get("mod.memoize", [])
        assert [node.short for node in bound] == ["lookup"]

    def test_partial_compute_is_resolved(self):
        findings = _run(("mod.py", """
            import functools

            SCALE = 2.0

            def set_scale(value):
                global SCALE
                SCALE = value

            def scaled(cfg):
                return cfg * SCALE

            def solve(cfg):
                return _MEMO.get_or_compute(
                    ("s", cfg), functools.partial(scaled, cfg),
                )
        """))
        (finding,) = [f for f in findings if f.rule == "KEY001"]
        assert "mod.SCALE" in finding.message
        assert "scaled" in finding.message


class TestNeutralModules:
    def test_instrumentation_timing_is_not_nondeterminism(self):
        # repro.obs is plumbing: its monotonic-clock reads never flow
        # into cached values, so they contribute no DET001 facts.
        findings = _run(
            ("repro/obs/metrics.py", """
                import time

                def timed():
                    return time.perf_counter()
            """),
            ("repro/engine/run.py", """
                from repro.obs.metrics import timed

                def evaluate(cfg):
                    timed()
                    return cfg * 2

                def solve(cfg):
                    return _MEMO.get_or_compute(
                        cfg, lambda: evaluate(cfg),
                    )
            """),
        )
        assert [f for f in findings if f.rule == "DET001"] == []


class TestRunnerIntegration:
    def test_lint_source_keysound_flag(self):
        result = lint_source(textwrap.dedent("""
            import time

            def profile(cfg):
                return _MEMO.get_or_compute(cfg, lambda: time.time())
        """), keysound=True)
        assert "keysound" in result.passes
        assert any(f.rule == "DET001" for f in result.findings)

    def test_noqa_suppresses_keysound_findings(self):
        result = lint_source(textwrap.dedent("""
            import time

            def profile(cfg):
                return _MEMO.get_or_compute(  # repro: noqa[DET001]
                    cfg, lambda: time.time(),
                )
        """), keysound=True)
        assert result.ok
        assert result.suppressed == 1

    def test_disable_rule(self):
        findings = _run(("mod.py", """
            import time

            def profile(cfg):
                return _MEMO.get_or_compute(cfg, lambda: time.time())
        """), disabled=frozenset({"DET001"}))
        assert findings == []


class TestOwnTreeClean:
    def test_src_is_clean_under_all_passes_within_budget(self, src_lint):
        assert list(src_lint.result.findings) == []
        assert src_lint.wall_s < ALL_PASSES_BUDGET_S, (
            f"full four-pass run took {src_lint.wall_s:.1f}s over src/"
        )

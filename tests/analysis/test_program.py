"""The shared program model: one resolver, one directive binder.

Each resolver case below pins a rule every whole-program pass shares: a
module function reached through a package re-export, a nested helper,
a same-module class constructor, and a stdlib terminal name
(``json.dumps``) that must not bind to a project function of the same
name. ``TestOpenNVRAMHazards`` keeps the catch rate on the global
options object of the OpenNVRAM compiler modules (SNIPPETS.md).
"""

import ast
import textwrap

from repro.analysis import lint_source
from repro.analysis.concurrency import build_concurrency_model
from repro.analysis.context import ModuleSource
from repro.analysis.directives import scan_directives
from repro.analysis.keysound import analyze_keysound
from repro.analysis.program import bind_directives, build_program


def _modules(*pairs):
    infos = []
    for path, snippet in pairs:
        source = textwrap.dedent(snippet)
        infos.append(ModuleSource(
            path=path, source=source, tree=ast.parse(source),
        ))
    return infos


def _keysound(*pairs):
    """(path, line, rule) of the keysound findings over the modules."""
    infos = _modules(*pairs)
    model, state = build_concurrency_model(infos)
    results = analyze_keysound(infos, model, state)
    return sorted(
        (f.path, f.line, f.rule) for found in results.values() for f in found
    )


#: A package whose ``__init__`` re-exports a function that reads module
#: state another function mutates.
PACKAGE = (
    ("lib/repro/pkg/__init__.py", """
        from repro.pkg.impl import scale, set_scale
    """),
    ("lib/repro/pkg/impl.py", """
        _STATE = {"k": 2.0}


        def set_scale(value):
            _STATE["k"] = value


        def scale(x):
            return x * _STATE["k"]
    """),
)


def _memo_user(import_line):
    return f"""
        {import_line}


        def solve(x):
            return _MEMO.get_or_compute(x, lambda: scale(x))
    """


class TestOneResolver:
    def test_re_exported_compute_is_resolved(self):
        # The repo's own idiom: ``from repro.array import build_array``.
        findings = _keysound(*PACKAGE, (
            "lib/repro/pkg/use_pkg.py",
            _memo_user("from repro.pkg import scale"),
        ))
        assert findings == [("lib/repro/pkg/use_pkg.py", 6, "KEY001")]

    def test_defining_module_import_still_resolves(self):
        findings = _keysound(*PACKAGE, (
            "lib/repro/pkg/use_impl.py",
            _memo_user("from repro.pkg.impl import scale"),
        ))
        assert findings == [("lib/repro/pkg/use_impl.py", 6, "KEY001")]

    def test_nested_helper_is_resolved(self):
        findings = _keysound(("nested.py", """
            _STATE = {"k": 2.0}


            def set_k(value):
                _STATE["k"] = value


            def solve(x):
                def helper():
                    return x * _STATE["k"]

                return _MEMO.get_or_compute(x, lambda: helper())
        """))
        assert findings == [("nested.py", 13, "KEY001")]

    def test_same_module_constructor_reaches_init(self):
        program = build_program(_modules(("ctor.py", """
            class Widget:
                def __init__(self, size):
                    self.size = size


            def make():
                return Widget(3)
        """)))
        make = program.functions["ctor.make"]
        (call,) = [n for n in make.own if isinstance(n, ast.Call)]
        (target,) = program.resolve(make, make.module, call.func)
        assert target is program.classes["ctor.Widget"]
        assert target.methods["__init__"].qualname == "ctor.Widget.__init__"

    def test_stdlib_terminal_name_does_not_bind_a_project_function(self):
        result = lint_source(textwrap.dedent("""
            import json


            def dumps(delay_s):
                return delay_s


            def save(wire_length_m):
                return json.dumps(wire_length_m)
        """), dimensional=True)
        assert [f.rule for f in result.findings] == []

    def test_builtin_protocol_names_are_not_duck_typed(self):
        program = build_program(_modules(("duck.py", """
            class Store:
                def get(self, key):
                    return key


            def lookup(payload):
                return payload.get("k")
        """)))
        lookup = program.functions["duck.lookup"]
        (call,) = [n for n in lookup.own if isinstance(n, ast.Call)]
        assert program.resolve(lookup, lookup.module, call.func) == []


class TestOpenNVRAMHazards:
    """A global options object read in a constructor and in an
    ``lru_cache`` def, behind a memo, from a thread pool."""

    SOURCE = """
        from concurrent.futures import ThreadPoolExecutor
        from functools import lru_cache

        from repro.fastpath import Memo


        class Options:
            def __init__(self, sense_kind="latch", use_body_taps=True):
                self.sense_kind = sense_kind
                self.use_body_taps = use_body_taps


        OPTS = Options()
        _ARRAYS = Memo("sense_arrays")
        _POOL = ThreadPoolExecutor(max_workers=2)


        def configure(sense_kind, use_body_taps):
            global OPTS
            OPTS = Options(sense_kind, use_body_taps)


        @lru_cache(maxsize=None)
        def tap_count(columns):
            return columns // 8 if OPTS.use_body_taps else 0


        class SenseArray:
            sensor_insts = []
            bitcell_offsets = []

            def __init__(self, columns):
                self.columns = columns
                self.sensor_kind = OPTS.sense_kind

            def add_sensors(self):
                for column in range(self.columns):
                    self.bitcell_offsets.append(column * 2)
                    self.sensor_insts.append((self.sensor_kind, column))
                return self


        def build(columns):
            return _ARRAYS.get_or_compute(
                columns, lambda: SenseArray(columns).add_sensors(),
            )


        def build_all(widths):
            return [_POOL.submit(build, width) for width in widths]
    """

    def test_the_exact_finding_set(self):
        result = lint_source(
            textwrap.dedent(self.SOURCE), path="sense_array.py",
            dimensional=True, concurrency=True, keysound=True,
        )
        # The lru_cache def and the memo whose compute constructs a
        # SenseArray both read OPTS, which configure() rebinds. The
        # class-level lists appended through ``self`` are a known gap
        # no pass catches (ROADMAP).
        assert [(f.line, f.rule) for f in result.findings] == [
            (25, "KEY001"), (45, "KEY001"),
        ]
        memo_finding = result.findings[1]
        assert "SenseArray.__init__" in memo_finding.message
        assert "sense_array.OPTS" in memo_finding.message


class TestOneBinder:
    def test_directives_attach_to_the_innermost_statement(self):
        source = textwrap.dedent("""
            class Counter:  # repro: guarded-by[_LOCK]
                def bump(self, key):
                    value = compute(  # repro: keyed-by[key]
                        # repro: key-exempt[_SEEN: telemetry only]
                        key,
                    )
                    return value

            # repro: dim[x: s]
        """)
        tree = ast.parse(source)
        directives = scan_directives(source).entries
        attached, unattached = bind_directives(tree, list(directives))
        by_form = {
            directive.form: type(stmt).__name__
            for stmt, held in attached.items() for directive in held
        }
        assert by_form == {
            "guarded-by": "ClassDef", "keyed-by": "Assign",
            "key-exempt": "Assign",
        }
        assert [d.form for d in unattached] == ["dim"]

    def test_unattached_dim_is_a_dimnote_on_its_line(self):
        result = lint_source(textwrap.dedent("""
            x = 1.0

            # repro: dim[x: s]
        """), dimensional=True)
        assert [(f.line, f.rule) for f in result.findings] == [
            (4, "DIMNOTE"),
        ]
        assert "not attached" in result.findings[0].message

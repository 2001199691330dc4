"""Concurrency analysis: contexts, CONC rules, seeded bugs, budget.

The seeded-bug classes re-create realistic races this repo has actually
had (or could plausibly grow) and assert the corresponding rule catches
them *with the inference chain naming the contexts and the state*, then
show the repaired form is clean. ``TestOwnTreeClean`` pins the property
the CI job enforces: the pass runs clean over ``src/`` within budget.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_source
from repro.analysis.concurrency import (
    FORK,
    LOOP,
    MAIN,
    THREAD,
    build_concurrency_model,
    guard_table,
)
from repro.analysis.context import ModuleSource
from repro.analysis.directives import scan_directives
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Full-tree analyzer budget (satellite requirement: < 10 s).
FULL_TREE_BUDGET_S = 10.0


def _result(snippet):
    return lint_source(textwrap.dedent(snippet), concurrency=True)


def _findings(snippet, rule):
    return [f for f in _result(snippet).findings if f.rule == rule]


def _conc_rules(snippet):
    return sorted({
        f.rule for f in _result(snippet).findings
        if f.rule.startswith("CONC")
    })


def _model(snippet, path="mod.py"):
    source = textwrap.dedent(snippet)
    import ast as _ast
    return build_concurrency_model(
        [ModuleSource(path=path, source=source, tree=_ast.parse(source))],
    )


class TestContexts:
    def test_async_def_runs_on_the_event_loop(self):
        model, _ = _model("""
            async def handle(request):
                return request
        """)
        (node,) = [n for n in model.program.functions.values() if n.short == "handle"]
        assert LOOP in model.contexts(node)
        assert "event loop" in model.reason(node, LOOP)

    def test_executor_submit_target_is_thread(self):
        model, _ = _model("""
            from concurrent.futures import ThreadPoolExecutor

            def work(x):
                return x

            def drive(points):
                pool = ThreadPoolExecutor(max_workers=4)
                return [pool.submit(work, p) for p in points]
        """)
        (work,) = [n for n in model.program.functions.values() if n.short == "work"]
        assert THREAD in model.contexts(work)
        assert "thread executor" in model.reason(work, THREAD)

    def test_process_target_is_fork_worker(self):
        model, _ = _model("""
            import multiprocessing

            def work(x):
                return x

            def drive():
                multiprocessing.Process(target=work, args=(1,)).start()
        """)
        (work,) = [n for n in model.program.functions.values() if n.short == "work"]
        assert FORK in model.contexts(work)

    def test_unreferenced_function_is_assumed_main(self):
        model, _ = _model("""
            def entry():
                return 1
        """)
        (node,) = [n for n in model.program.functions.values() if n.short == "entry"]
        assert model.contexts(node) == {MAIN}

    def test_contexts_propagate_through_call_edges(self):
        model, _ = _model("""
            import threading

            def leaf():
                return 1

            def middle():
                return leaf()

            def drive():
                threading.Thread(target=middle).start()
        """)
        (leaf,) = [n for n in model.program.functions.values() if n.short == "leaf"]
        assert THREAD in model.contexts(leaf)
        # The why-chain walks back through the call edge to the spawn.
        assert "called from middle" in model.reason(leaf, THREAD)

    def test_callable_escaping_into_executor_marks_caller_arg(self):
        model, _ = _model("""
            import asyncio

            async def _admitted(work):
                loop = asyncio.get_event_loop()
                return await loop.run_in_executor(None, work)

            async def handle(x):
                return await _admitted(lambda: x + 1)
        """)
        assert any(
            THREAD in model.contexts(lam) for lam in model.program.lambdas
        )


#: The pre-thread-safety ``Memo.get_or_compute`` body, verbatim in
#: spirit: counter bumps and an eviction loop on a plain OrderedDict,
#: reached from executor threads through a module-level instance.
MEMO_RACE = """
    from collections import OrderedDict
    from concurrent.futures import ThreadPoolExecutor


    class Memo:
        def __init__(self, max_entries=4):
            self.max_entries = max_entries
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self._entries = OrderedDict()

        def get_or_compute(self, key, compute):
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
            value = compute()
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            return value


    MEMO = Memo()


    def evaluate(point):
        return MEMO.get_or_compute(point, lambda: point * 2)


    def sweep(points):
        pool = ThreadPoolExecutor(max_workers=4)
        return [f.result() for f in [pool.submit(evaluate, p)
                                     for p in points]]
"""


#: The repaired form: the whole lookup/insert/evict body is lexically
#: under the per-instance lock.
MEMO_GUARDED = """
    import threading
    from collections import OrderedDict
    from concurrent.futures import ThreadPoolExecutor


    class Memo:
        def __init__(self, max_entries=4):
            self.max_entries = max_entries
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self._entries = OrderedDict()
            self._lock = threading.Lock()

        def get_or_compute(self, key, compute):
            with self._lock:
                try:
                    value = self._entries[key]
                except KeyError:
                    self.misses += 1
                else:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return value
                value = compute()
                self._entries[key] = value
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                return value


    MEMO = Memo()


    def evaluate(point):
        return MEMO.get_or_compute(point, lambda: point * 2)


    def sweep(points):
        pool = ThreadPoolExecutor(max_workers=4)
        return [f.result() for f in [pool.submit(evaluate, p)
                                     for p in points]]
"""


class TestCONC001:
    def test_memo_eviction_race_is_caught(self):
        findings = _findings(MEMO_RACE, "CONC001")
        keys = {f.message.split("'")[1] for f in findings}
        assert any(k.endswith("Memo._entries") for k in keys)
        assert any(k.endswith("Memo.evictions") for k in keys)
        entries = next(
            f for f in findings if "Memo._entries'" in f.message
        )
        # The chain names the context and how the code got there.
        assert "executor-thread" in entries.message
        assert "submitted to a thread executor" in entries.message
        # And why the instance is considered shared.
        assert "instance is shared" in entries.message

    def test_lock_guarded_memo_is_clean(self):
        assert _findings(MEMO_GUARDED, "CONC001") == []

    def test_call_site_guard_declared_with_annotation(self):
        # The EvalCache idiom: an unlocked helper whose callers hold the
        # lock, with the fields declaring which lock that is.
        snippet = MEMO_RACE.replace(
            "        def get_or_compute(self, key, compute):",
            "        def get_or_compute(self, key, compute):\n"
            "            with self._lock:\n"
            "                return self._locked(key, compute)\n\n"
            "        def _locked(self, key, compute):",
        ).replace(
            "            self.hits = 0",
            "            import threading\n"
            "            self._lock = threading.Lock()\n"
            "            self.hits = 0  # repro: guarded-by[_lock]",
        ).replace(
            "            self.misses = 0",
            "            self.misses = 0  # repro: guarded-by[_lock]",
        ).replace(
            "            self.evictions = 0",
            "            self.evictions = 0  # repro: guarded-by[_lock]",
        ).replace(
            "            self._entries = OrderedDict()",
            "            self._entries = (  # repro: guarded-by[_lock]\n"
            "                OrderedDict())",
        )
        assert _findings(snippet, "CONC001") == []
        assert _findings(snippet, "CONCNOTE") == []

    def test_guarded_by_annotation_is_trusted(self):
        snippet = """
            import threading

            _LOCK = threading.Lock()
            _TALLY = {}  # repro: guarded-by[_LOCK]


            def record(name):
                _TALLY[name] = _TALLY.get(name, 0) + 1


            def drive():
                threading.Thread(target=record, args=("x",)).start()
        """
        assert _findings(snippet, "CONC001") == []
        assert _findings(snippet, "CONCNOTE") == []

    def test_mismatched_lock_contradicts_declaration(self):
        snippet = """
            import threading

            _LOCK = threading.Lock()
            _OTHER = threading.Lock()
            _TALLY = {}  # repro: guarded-by[_LOCK]


            def record(name):
                with _OTHER:
                    _TALLY[name] = _TALLY.get(name, 0) + 1


            def drive():
                threading.Thread(target=record, args=("x",)).start()
        """
        (finding,) = _findings(snippet, "CONC001")
        assert "declared guarded-by[_LOCK]" in finding.message
        assert "'_OTHER' instead" in finding.message

    #: Two locks around one store into a _B_LOCK-guarded dict; each
    #: ``{order}`` body takes both locks, in one of four ways.
    BOTH_LOCKS = textwrap.dedent("""
        import threading

        _A_LOCK = threading.Lock()
        _B_LOCK = threading.Lock()
        _COUNTS = {{}}  # repro: guarded-by[_B_LOCK]


        def record(key):
        {order}


        def drive():
            threading.Thread(target=record, args=("x",)).start()
    """)

    STORE = "_COUNTS[key] = _COUNTS.get(key, 0) + 1"

    @pytest.mark.parametrize("order", [
        ["_A_LOCK.acquire()", "_B_LOCK.acquire()", STORE,
         "_B_LOCK.release()", "_A_LOCK.release()"],
        ["_B_LOCK.acquire()", "_A_LOCK.acquire()", STORE,
         "_A_LOCK.release()", "_B_LOCK.release()"],
        ["with _A_LOCK:", "    with _B_LOCK:", f"        {STORE}"],
        ["with _B_LOCK:", "    with _A_LOCK:", f"        {STORE}"],
    ], ids=["acquire-a-b", "acquire-b-a", "with-a-b", "with-b-a"])
    def test_declared_lock_held_with_another_is_satisfied(self, order):
        body = "\n".join("    " + line for line in order)
        snippet = self.BOTH_LOCKS.format(order=body)
        assert _result(snippet).findings == ()

    def test_lock_attribution_does_not_depend_on_the_hash_seed(
        self, tmp_path,
    ):
        # Three locks held, none the declared one: the message must name
        # the innermost, whatever the run's hash seed.
        body = "\n".join("    " + line for line in [
            "_A_LOCK.acquire()", "_B_LOCK.acquire()", "_C_LOCK.acquire()",
            self.STORE,
        ])
        snippet = self.BOTH_LOCKS.format(order=body).replace(
            "_B_LOCK = threading.Lock()",
            "_B_LOCK = threading.Lock()\n_C_LOCK = threading.Lock()",
        ).replace("guarded-by[_B_LOCK]", "guarded-by[_D_LOCK]")
        target = tmp_path / "seeds.py"
        target.write_text(snippet)
        script = (
            "import sys\n"
            "from repro.analysis import format_json, lint_source\n"
            "source = open(sys.argv[1]).read()\n"
            "result = lint_source(source, concurrency=True)\n"
            "print(format_json(result).split('\"timings_ms\"')[0])\n"
        )
        outputs = set()
        for seed in ("0", "1", "5"):
            done = subprocess.run(
                [sys.executable, "-c", script, str(target)],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed,
                     "PYTHONPATH": str(REPO_ROOT / "src")},
            )
            outputs.add(done.stdout)
        (output,) = outputs
        assert "runs under lock '_C_LOCK' instead" in output

    def test_atomic_rebind_is_not_a_race(self):
        snippet = """
            import threading

            _LATEST = None


            def record(value):
                global _LATEST
                _LATEST = value


            def drive():
                threading.Thread(target=record, args=(1,)).start()
        """
        assert _findings(snippet, "CONC001") == []

    @pytest.mark.parametrize("call", [
        "__setitem__(name, 1)", "__delitem__(name)",
    ])
    def test_dunder_item_calls_are_mutations(self, call):
        snippet = f"""
            import threading

            _TALLY = {{}}


            def record(name):
                _TALLY.{call}


            def drive():
                threading.Thread(target=record, args=("x",)).start()
        """
        (finding,) = _findings(snippet, "CONC001")
        assert f".{call.split('(')[0]}() mutation" in finding.message

    def test_fork_contexts_do_not_share_memory(self):
        snippet = """
            import multiprocessing

            _TALLY = {}


            def record(name):
                _TALLY[name] = _TALLY.get(name, 0) + 1


            def drive():
                multiprocessing.Process(target=record, args=("x",)).start()
        """
        assert _findings(snippet, "CONC001") == []


class TestCONC002:
    def test_sleep_reachable_from_async_handler(self):
        snippet = """
            import time


            def evaluate_slow(x):
                time.sleep(0.01)
                return x


            async def handle(request):
                return evaluate_slow(request)
        """
        (finding,) = _findings(snippet, "CONC002")
        assert "time.sleep" in finding.message
        assert "handle -> evaluate_slow" in finding.message
        assert "run_in_executor" in finding.message

    def test_executor_hop_breaks_the_chain(self):
        snippet = """
            import asyncio
            import time


            def evaluate_slow(x):
                time.sleep(0.01)
                return x


            async def handle(request):
                loop = asyncio.get_event_loop()
                return await loop.run_in_executor(
                    None, evaluate_slow, request,
                )
        """
        assert _findings(snippet, "CONC002") == []

    def test_scalar_evaluate_flagged_via_project_table(self):
        snippet = """
            from repro.engine.record import evaluate_config


            async def handle(config, tech):
                return evaluate_config(config, tech)
        """
        (finding,) = _findings(snippet, "CONC002")
        assert "handle" in finding.message

    def test_roots_are_aggregated_per_site(self):
        snippet = """
            import time


            def evaluate_slow(x):
                time.sleep(0.01)
                return x


            async def handle_one(request):
                return evaluate_slow(request)


            async def handle_two(request):
                return evaluate_slow(request)
        """
        (finding,) = _findings(snippet, "CONC002")
        assert "+1 more async entry point" in finding.message


class TestCONC003:
    def test_lock_inherited_by_fork_worker(self):
        snippet = """
            import multiprocessing
            import threading

            _LOCK = threading.Lock()


            def worker(n):
                with _LOCK:
                    return n * 2


            def launch():
                multiprocessing.Process(target=worker, args=(1,)).start()
        """
        (finding,) = _findings(snippet, "CONC003")
        assert "threading lock" in finding.message
        assert "register_at_fork" in finding.message

    def test_atfork_reinit_exempts_the_lock(self):
        snippet = """
            import multiprocessing
            import os
            import threading

            _LOCK = threading.Lock()


            def _reinit_after_fork():
                global _LOCK
                _LOCK = threading.Lock()


            os.register_at_fork(after_in_child=_reinit_after_fork)


            def worker(n):
                with _LOCK:
                    return n * 2


            def launch():
                multiprocessing.Process(target=worker, args=(1,)).start()
        """
        assert _findings(snippet, "CONC003") == []

    def test_open_file_inherited_by_fork_worker(self):
        snippet = """
            import multiprocessing

            _LOG = open("events.jsonl", "a")


            def worker(n):
                _LOG.write(str(n))


            def launch():
                multiprocessing.Process(target=worker, args=(1,)).start()
        """
        (finding,) = _findings(snippet, "CONC003")
        assert "file handle" in finding.message


class TestCONC004:
    def test_closure_capture_mutated_on_both_sides(self):
        snippet = """
            from concurrent.futures import ThreadPoolExecutor


            def run(points):
                results = []
                pool = ThreadPoolExecutor(max_workers=2)
                for p in points:
                    pool.submit(lambda: results.append(p))
                results.append("sentinel")
                return results
        """
        (finding,) = _findings(snippet, "CONC004")
        assert "'results'" in finding.message
        assert "mutated both inside the task" in finding.message

    def test_read_only_capture_is_clean(self):
        snippet = """
            from concurrent.futures import ThreadPoolExecutor


            def run(points):
                base = {"offset": 1}
                pool = ThreadPoolExecutor(max_workers=2)
                futures = [pool.submit(lambda p=p: p + base["offset"])
                           for p in points]
                return [f.result() for f in futures]
        """
        assert _findings(snippet, "CONC004") == []


class TestGuardGrammar:
    def test_parse_guard_comments(self):
        by_line, errors = guard_table(scan_directives(
            "x = 1  # repro: guarded-by[_lock]\n"
            "y = 2  # repro: guarded-by[gil]\n"
        ))
        assert by_line == {1: "_lock", 2: "gil"}
        assert errors == []

    def test_non_identifier_lock_name_is_an_error(self):
        _by_line, errors = guard_table(scan_directives(
            "x = 1  # repro: guarded-by[self._lock!]\n"
        ))
        assert len(errors) == 1
        assert "not an identifier" in errors[0][1]

    def test_unattached_comment_is_reported(self):
        snippet = """
            import threading

            _LOCK = threading.Lock()


            def record():
                # repro: guarded-by[_LOCK]
                return 1
        """
        (finding,) = _findings(snippet, "CONCNOTE")
        assert "not attached" in finding.message

    def test_unknown_lock_name_is_reported(self):
        snippet = """
            _TALLY = {}  # repro: guarded-by[_NO_SUCH_LOCK]
        """
        (finding,) = _findings(snippet, "CONCNOTE")
        assert "not defined in its scope" in finding.message

    COUNTER = """
        import threading


        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                # the misspelt lock name below is the only problem
                self.hits = 0  # repro: guarded-by[_lokc]{noqa}
    """

    def test_unknown_lock_is_reported_on_the_directive_line(self):
        (finding,) = _findings(self.COUNTER.format(noqa=""), "CONCNOTE")
        assert finding.line == 9
        assert "guarded-by[_lokc]" in finding.message

    def test_unknown_lock_note_is_suppressible_on_its_line(self):
        result = _result(self.COUNTER.format(
            noqa="  # repro: noqa[CONCNOTE]",
        ))
        assert result.findings == ()
        assert result.suppressed == 1

    def test_gil_guard_accepts_plain_counters(self):
        snippet = """
            import threading

            _CALLS = 0  # repro: guarded-by[gil]


            def record():
                global _CALLS
                _CALLS += 1


            def drive():
                threading.Thread(target=record).start()
        """
        assert _findings(snippet, "CONC001") == []
        assert _findings(snippet, "CONCNOTE") == []


class TestRunnerIntegration:
    def test_disable_masks_a_conc_rule(self):
        result = lint_source(
            textwrap.dedent(MEMO_RACE), concurrency=True,
            disable=["CONC001"],
        )
        assert not [f for f in result.findings if f.rule == "CONC001"]

    def test_noqa_suppresses_a_conc_finding(self):
        snippet = textwrap.dedent(MEMO_RACE).replace(
            "self.evictions += 1",
            "self.evictions += 1  # repro: noqa[CONC001]",
        )
        result = lint_source(snippet, concurrency=True)
        assert result.suppressed >= 1
        assert not any(
            f.rule == "CONC001" and "evictions" in f.message
            for f in result.findings
        )

    def test_passes_recorded_in_result(self):
        assert _result("x = 1").passes == ("base", "concurrency")

    @pytest.mark.usefixtures("no_package_context")
    def test_cli_concurrency_flag(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text(textwrap.dedent(MEMO_RACE))
        code = main(["lint", "--concurrency", "--format", "json",
                     str(target)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 3
        assert "concurrency" in payload["passes"]
        assert any(
            f["rule"] == "CONC001" for f in payload["findings"]
        )

    @pytest.mark.usefixtures("no_package_context")
    def test_cli_all_runs_every_pass(self, tmp_path, capsys):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        code = main(["lint", "--all", "--format", "json", str(target)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"] == [
            "base", "dimensional", "concurrency", "keysound",
        ]

    def test_cli_usage_error_exit_code(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "missing.py")])
        assert code == 2
        assert "mcpat-repro lint:" in capsys.readouterr().err


class TestOwnTreeClean:
    def test_src_is_conc_clean_within_budget(self, src_lint):
        conc = [
            f for f in src_lint.result.findings if f.rule.startswith("CONC")
        ]
        assert conc == []
        # An over-estimate of a base + concurrency lint: it still counts
        # the shared layers that lint would not build.
        elapsed = src_lint.wall_s - src_lint.timing_s(
            "dimensional", "keysound",
        )
        assert elapsed < FULL_TREE_BUDGET_S, (
            f"concurrency pass took {elapsed:.1f}s over src/"
        )

"""The shared worklist solver: visiting order, cap, and completeness."""

import ast
import textwrap

import pytest

from repro.analysis import fixpoint
from repro.analysis.context import ModuleSource
from repro.analysis.dimensional import solve_fixpoint
from repro.analysis.keysound import solve_effects
from repro.analysis.registry import SharedAnalysis
from repro.analysis.runner import _package_modules


class TestOrder:
    def test_every_item_is_visited_once_in_item_order(self):
        visits = []

        def step(item):
            visits.append(item)
            return []

        assert fixpoint.solve(["a", "b", "c"], step) == 1
        assert visits == ["a", "b", "c"]

    def test_dirtied_ahead_runs_this_round_behind_runs_the_next(self):
        visits = []

        def step(item):
            visits.append(item)
            if item == "c" and visits.count("c") == 1:
                return ["a"]  # behind the cursor: next round
            if item == "a" and visits.count("a") == 2:
                return ["c"]  # ahead of the cursor: same round
            return []

        assert fixpoint.solve(["a", "b", "c"], step) == 2
        assert visits == ["a", "b", "c", "a", "c"]

    def test_clean_items_are_skipped(self):
        visits = []

        def step(item):
            visits.append(item)
            return ["b"] if visits == ["a", "b", "c"] else []

        assert fixpoint.solve(["a", "b", "c"], step) == 2
        assert visits == ["a", "b", "c", "b"]

    def test_the_cap_holds(self):
        visits = []

        def step(item):
            visits.append(item)
            return [item]  # never converges

        assert fixpoint.solve(["a"], step) == fixpoint.MAX_ROUNDS
        assert len(visits) == fixpoint.MAX_ROUNDS


def _exhaustive(items, step):
    """Test-only reference: rerun every item while anything changed."""
    for rounds in range(1, fixpoint.MAX_ROUNDS + 1):
        changed = False
        for item in items:
            changed |= bool(list(step(item)))
        if not changed:
            return rounds
    return fixpoint.MAX_ROUNDS


#: Chains whose facts flow against the item order, so each needs a
#: revisit several rounds later: an escape slot handed up three callers
#: to the function that finally binds ``job``, and a class shared only
#: through a field of a field of a module-level instance.
BACKWARD_CHAINS = """
    from concurrent.futures import ThreadPoolExecutor

    _POOL = ThreadPoolExecutor(max_workers=2)


    def main():
        outer(job)


    def outer(fn):
        middle(fn)


    def middle(work):
        inner(work)


    def inner(task):
        _POOL.submit(task)


    def job():
        return 1


    class Leaf:
        def __init__(self):
            self.count = 0


    class Middle:
        def __init__(self):
            self.leaf = Leaf()


    class Root:
        def __init__(self):
            self.middle = Middle()


    ROOT = Root()
"""


def _snippet_modules():
    source = textwrap.dedent(BACKWARD_CHAINS)
    return [ModuleSource("chains.py", source, ast.parse(source))]


def _solved_facts(load_modules):
    """Every fact the solver produces for the given modules."""
    shared = SharedAnalysis(load_modules())
    project = shared.program()
    solve_fixpoint(project)
    model, state = shared.concurrency_model()
    effects = solve_effects(project, state)
    return {
        "dims": {
            qual: ([repr(slot.value) for slot in fn.params],
                   repr(fn.return_value))
            for qual, fn in project.functions.items()
        },
        "contexts": {q: sorted(c) for q, c in model.ctx.items()},
        "context_why": dict(model.why),
        "escapes": {k: sorted(v) for k, v in model.escapes.items()},
        "shared": sorted(state.shared_classes),
        "shared_why": dict(state.shared_why),
        "effects": {
            kind: {
                qual: {repr(key): (fact.path, fact.line, fact.chain)
                       for key, fact in table.items()}
                for qual, table in getattr(effects, kind).items()
            }
            for kind in ("reads", "writes", "nondet")
        },
        "mentions": {q: sorted(m) for q, m in effects.mentions.items()},
    }


class TestCompleteness:
    @pytest.mark.parametrize("load_modules", [
        _package_modules, _snippet_modules,
    ], ids=["src", "backward-chains"])
    def test_worklist_matches_rerunning_everything(
        self, monkeypatch, load_modules,
    ):
        # If any pass under-reported the dependents of a change, the
        # worklist would skip a visit the exhaustive solver makes.
        worklist = _solved_facts(load_modules)
        monkeypatch.setattr(fixpoint, "solve", _exhaustive)
        exhaustive = _solved_facts(load_modules)
        assert worklist["dims"] and worklist["context_why"]
        assert worklist["shared_why"] and worklist["effects"]["reads"]
        for name, facts in worklist.items():
            assert facts == exhaustive[name], name

    def test_backward_chains_need_later_rounds(self):
        facts = _solved_facts(_snippet_modules)
        assert "executor-thread" in facts["contexts"]["chains.job"]
        assert set(facts["shared"]) == {
            "chains.Root", "chains.Middle", "chains.Leaf",
        }

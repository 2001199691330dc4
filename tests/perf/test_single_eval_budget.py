"""Budget guards for the single-evaluation fast path.

A cold (empty-memo) ``Processor.report()`` on the heaviest validation
preset must stay well below the pre-fast-path cost (~1.5-3 s per chip).
The wall-clock budgets are deliberately loose — many times the expected
time on a developer machine — so CI noise never trips them; a memo
silently bypassed is caught without timing, by the memo counters.
"""

import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path

from repro import fastpath
from repro.chip import Processor
from repro.config import presets

#: Upper bound on one cold fast-path evaluation (seconds). Measured
#: 15-40 ms per preset on a 2-vCPU Intel Xeon container (CPython 3.11);
#: the pre-fast-path cost is ~1.5-3 s.
COLD_EVAL_BUDGET_S = 1.0


def _time_report(config) -> float:
    start = time.perf_counter()
    Processor(config).report()
    return time.perf_counter() - start


def test_cold_eval_within_budget():
    times = {}
    for name in presets.VALIDATION_PRESETS:
        fastpath.clear_all()
        times[name] = _time_report(presets.VALIDATION_PRESETS[name]())
    worst = max(times, key=times.get)
    assert times[worst] < COLD_EVAL_BUDGET_S, (
        f"cold fast-path eval of {worst} took {times[worst]:.2f}s "
        f"(budget {COLD_EVAL_BUDGET_S}s); memo stats: {fastpath.stats()}"
    )


def test_cold_and_warm_eval_go_through_the_memos():
    """A cold report shares gate constants and repeater solutions; a
    repeat evaluates the chip parts the ``chip.parts`` memo kept and
    computes nothing new; so does a rebuild of the same blocks for a
    config new to that memo, from the ``build_array`` memo. A bypassed
    memo shows up as missing hits or as fresh misses."""
    config = presets.VALIDATION_PRESETS["niagara1"]
    fastpath.clear_all()
    Processor(config()).report()
    cold = fastpath.stats()
    assert cold["gate_constants"]["hits"] > 0, cold
    assert cold["repeater_optimum"]["hits"] > 0, cold
    assert cold["build_array"]["misses"] > 0, cold
    Processor(config()).report()
    warm = fastpath.stats()
    assert warm["chip.parts"]["hits"] == cold["chip.parts"]["hits"] + 1, warm
    for name, counters in warm.items():
        assert counters["misses"] == cold[name]["misses"], (name, warm)

    Processor(dataclasses.replace(config(), name="renamed")).report()
    rebuilt = fastpath.stats()
    assert rebuilt["build_array"]["hits"] > warm["build_array"]["hits"]
    for name, counters in rebuilt.items():
        new_misses = 1 if name == "chip.parts" else 0
        assert counters["misses"] == warm[name]["misses"] + new_misses, (
            name, rebuilt,
        )


def test_warm_eval_near_free():
    config = presets.VALIDATION_PRESETS["niagara1"]
    fastpath.clear_all()
    t_cold = _time_report(config())
    t_warm = _time_report(config())
    assert t_warm < t_cold
    assert t_warm < 0.25  # measured ~1 ms: a chip.parts hit


def test_cold_eval_imports_neither_numpy_nor_the_engine():
    """The cold path is scalar Python: numpy (an optional extra, ~12 MB
    resident) loads only for batch evaluation, and the engine with its
    ``multiprocessing`` pool only for batches of configs, so cold
    reports of every validation preset in a fresh interpreter leave
    them out. The chip key is computed below the engine for this."""
    root = Path(__file__).resolve().parents[2]
    script = (
        "import sys\n"
        "from repro.chip import Processor\n"
        "from repro.config import presets\n"
        "for build in presets.VALIDATION_PRESETS.values():\n"
        "    Processor(build()).report()\n"
        "print(sorted({'numpy', 'repro.engine', 'multiprocessing'}\n"
        "             & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=root, env=env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"

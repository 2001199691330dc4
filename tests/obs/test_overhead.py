"""Budget for the cost of instrumentation while it is switched off.

The span and counter sites are compiled into the hot paths, so their
disabled cost cannot be measured by removing them. It is bounded
instead: the per-call cost of a disabled site, times the number of
sites one cold evaluation crosses (a ``detail=True`` recording holds
exactly one span per crossing), over that evaluation's untraced time.
"""

import time
import timeit

import pytest

from repro import fastpath, obs
from repro.chip import Processor
from repro.config import presets

#: Largest fraction of a cold evaluation that *disabled* instrumentation
#: may cost. The observability layer is off by default; its presence in
#: the hot paths has to be free to within noise.
OBS_OVERHEAD_BUDGET = 0.02

_CALLS = 20_000


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _per_call_s(site) -> float:
    """Best-of-five per-call cost, so a slow moment cannot inflate it."""
    return min(timeit.repeat(site, number=_CALLS, repeat=5)) / _CALLS


def _disabled_span():
    with obs.span("budget.site", detail=True, size=_CALLS):
        pass


def test_disabled_instrumentation_within_budget():
    build = presets.VALIDATION_PRESETS["niagara1"]
    fastpath.clear_all()
    start = time.perf_counter()
    Processor(build()).report()
    cold_s = time.perf_counter() - start

    site_s = max(
        _per_call_s(_disabled_span),
        _per_call_s(lambda: obs.counter_add("budget.site")),
    )

    obs.enable(detail=True)
    fastpath.clear_all()
    Processor(build()).report()
    obs.disable()
    sites = len(obs.spans())

    fraction = sites * site_s / cold_s
    assert sites > 0
    assert fraction < OBS_OVERHEAD_BUDGET, (
        f"{sites} disabled sites x {site_s * 1e9:.0f} ns = {fraction:.2%} "
        f"of a {cold_s * 1e3:.0f} ms cold eval "
        f"(budget {OBS_OVERHEAD_BUDGET:.0%})"
    )

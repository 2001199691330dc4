"""One built chip per structure and temperature, shared across clocks.

Scalar evaluations without a workload take their chip from the
``engine.built_chips`` memo, keyed by every config field but
``clock_hz``; serve's executor threads share those chips.
"""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import fastpath, obs
from repro.config.schema import SharedCacheConfig
from repro.engine import evaluate_many
from repro.engine.cache import chip_key, structure_key

from tests.conftest import make_tiny_config

pytestmark = pytest.mark.usefixtures("fresh_batch_state")


def built_chips() -> dict[str, int]:
    return fastpath.stats()["engine.built_chips"]


def clock_points(config, n, lo_hz=0.5e9, hi_hz=3.0e9):
    step = (hi_hz - lo_hz) / (n - 1)
    return [
        dataclasses.replace(config, clock_hz=lo_hz + step * i)
        for i in range(n)
    ]


class TestKey:
    def test_every_field_but_the_clock(self):
        config = make_tiny_config()
        assert chip_key(config) == chip_key(
            dataclasses.replace(config, clock_hz=2.5e9)
        )
        for change in ({"temperature_k": 370.0}, {"n_cores": 2},
                       {"name": "other"}):
            assert chip_key(config) != chip_key(
                dataclasses.replace(config, **change)
            )
        # The structure key drops the temperature as well.
        hot = dataclasses.replace(config, temperature_k=370.0)
        assert structure_key(config) == structure_key(hot)

    def test_texts_keep_int_and_float_temperatures_apart(self):
        config = make_tiny_config(temperature_k=360)
        same = dataclasses.replace(config, temperature_k=360.0)
        assert config == same
        assert chip_key(config) != chip_key(same)


class TestReuse:
    def test_a_new_clock_reuses_the_chip(self):
        configs = clock_points(make_tiny_config(), 4)
        evaluate_many(configs, cache=None)
        assert built_chips()["misses"] == 1
        assert built_chips()["hits"] == 3

    def test_workload_runs_build_their_own_chip(self):
        from repro.perf.workload import SPLASH2_PROFILES

        evaluate_many(clock_points(make_tiny_config(), 3), cache=None,
                      workload=SPLASH2_PROFILES["lu"])
        assert built_chips()["hits"] == built_chips()["misses"] == 0

    def test_disabled_fast_path_bypasses_the_memo(self):
        with fastpath.disabled():
            evaluate_many(clock_points(make_tiny_config(), 3), cache=None)
        assert built_chips() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
        }

    def test_clear_all_empties_the_memo(self):
        evaluate_many(clock_points(make_tiny_config(), 2), cache=None)
        assert built_chips()["entries"] == 1
        fastpath.clear_all()
        assert built_chips()["entries"] == 0


def test_threads_share_built_chips_exactly():
    # The serve shape: executor threads evaluating new clock points of
    # known structures at once, computing one chip's lazy parts
    # concurrently (CPython 3.12+ cached_property takes no lock).
    structures = [
        make_tiny_config(),
        make_tiny_config(
            name="tiny-l2", l2=SharedCacheConfig(capacity_bytes=256 * 1024),
        ),
    ]
    configs = [
        config
        for pair in zip(*(clock_points(s, 32) for s in structures))
        for config in pair
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            records = list(pool.map(
                lambda config: evaluate_many([config], cache=None)[0],
                configs, timeout=120,
            ))
    finally:
        sys.setswitchinterval(interval)
    with fastpath.disabled():
        exact = evaluate_many(configs, cache=None)
    assert records == exact

    counters = obs.snapshot().counters
    misses = counters["memo.engine.built_chips.misses"]
    # Threads missing one structure at once each build it.
    assert len(structures) <= misses <= 4 * len(structures)
    assert counters["memo.engine.built_chips.hits"] == len(configs) - misses
    assert counters["memo.engine.built_chips.entries"] == len(structures)

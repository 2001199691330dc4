"""Building a chip reads no clock: one built chip per structure.

``Processor(config).parts`` come from the ``chip.parts`` memo, keyed by
every config field but ``clock_hz``, so every config that differs only
in the clock evaluates the same parts at its own clock. A report at
``f2`` from parts built and first evaluated at ``f1`` must equal, bit
for bit, the report built at ``f2`` with no memos, including clocks on
opposite sides of a shared cache's bank-saturation kink (where the
clock response bends); so must engine evaluations, with and without a
workload run. The batch backend's compiles rely on the same property.
"""

import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import fastpath, obs
from repro.chip import Processor
from repro.chip.export import result_to_dict
from repro.config.loader import chip_key
from repro.config.presets import VALIDATION_PRESETS
from repro.config.schema import (
    MemoryControllerConfig,
    SharedCacheConfig,
    SystemConfig,
)
from repro.engine import config_keys, evaluate_config, evaluate_many
from repro.perf.workload import SPLASH2_PROFILES
from repro.tech import SUPPORTED_NODES_NM
from repro.units import KB

from tests.conftest import make_tiny_config
from tests.test_cross_layer_properties import CORE_CONFIGS

#: A clock as a multiple of the lowest shared-cache kink: below it or
#: above it, so a drawn pair often straddles it.
KINK_FACTORS = (
    st.floats(min_value=0.5, max_value=0.95)
    | st.floats(min_value=1.05, max_value=2.0)
)


def parts_memo() -> dict[str, int]:
    return fastpath.stats()["chip.parts"]


def kink_hz(config: SystemConfig) -> float:
    """The lowest bank-saturation clock of the chip's shared caches."""
    parts = Processor(config).parts
    return min(
        1.0 / max(cache.cache.access_time, cache.cache.cycle_time)
        for cache in (parts.l2, parts.l3) if cache is not None
    )


def assert_clock_free(config: SystemConfig, f1: float, f2: float) -> None:
    def at(f: float) -> SystemConfig:
        return dataclasses.replace(config, clock_hz=f)

    # Build the parts at f1 and evaluate them there first: a block that
    # kept anything of the clock it was first evaluated at shows at f2.
    fastpath.clear_all()
    first = Processor(at(f1))
    first.report()
    assert first.parts.config == at(f1)
    processor = Processor(at(f2))
    assert processor.parts is first.parts
    with fastpath.disabled():
        exact = Processor(at(f2)).report()
    assert result_to_dict(processor.report()) == result_to_dict(exact)

    lu = SPLASH2_PROFILES["lu"]
    fastpath.clear_all()
    evaluate_config(at(f1))
    evaluate_config(at(f1), lu)
    records = [evaluate_config(at(f2)), evaluate_config(at(f2), lu)]
    with fastpath.disabled():
        exact_records = [evaluate_config(at(f2)),
                         evaluate_config(at(f2), lu)]
    assert records == exact_records


@pytest.mark.parametrize("name", sorted(VALIDATION_PRESETS))
def test_presets_across_and_beside_the_kink(name):
    config = VALIDATION_PRESETS[name]()
    below = 0.8 * kink_hz(config)
    assert below < config.clock_hz
    assert_clock_free(config, config.clock_hz, below)
    assert_clock_free(config, below, 1.25 * config.clock_hz)
    assert_clock_free(config, 1.25 * config.clock_hz, config.clock_hz)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    core=CORE_CONFIGS,
    node=st.sampled_from(sorted(SUPPORTED_NODES_NM)),
    temperature_k=st.floats(min_value=300.0, max_value=400.0),
    f1_factor=KINK_FACTORS,
    f2_factor=KINK_FACTORS,
)
def test_random_chips(core, node, temperature_k, f1_factor, f2_factor):
    config = SystemConfig(
        name="clock-free", node_nm=node, clock_hz=1.0e9, n_cores=2,
        core=core, temperature_k=temperature_k,
        l2=SharedCacheConfig(capacity_bytes=256 * KB, banks=2),
        memory_controller=MemoryControllerConfig(channels=1),
    )
    kink = kink_hz(config)
    assert_clock_free(config, f1_factor * kink, f2_factor * kink)


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
        # The engine groups batch points by the same key.
        hot = dataclasses.replace(config, temperature_k=370.0)
        assert config_keys(hot)[1] == chip_key(hot)

    def test_texts_keep_int_and_float_temperatures_apart(self):
        config = make_tiny_config(temperature_k=360)
        same = dataclasses.replace(config, temperature_k=360.0)
        assert config == same
        assert chip_key(config) != chip_key(same)


@pytest.mark.usefixtures("fresh_batch_state")
class TestReuse:
    def test_a_new_clock_reuses_the_chip(self):
        configs = clock_points(make_tiny_config(), 4)
        evaluate_many(configs, cache=None)
        assert parts_memo()["misses"] == 1
        assert parts_memo()["hits"] == 3

    def test_workload_runs_share_the_parts(self):
        evaluate_many(clock_points(make_tiny_config(), 3), cache=None,
                      workload=SPLASH2_PROFILES["lu"])
        assert parts_memo()["misses"] == 1
        assert parts_memo()["hits"] == 2

    def test_disabled_fast_path_bypasses_the_memo(self):
        with fastpath.disabled():
            evaluate_many(clock_points(make_tiny_config(), 3), cache=None)
        assert parts_memo() == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0,
        }

    def test_clear_all_empties_the_memo(self):
        evaluate_many(clock_points(make_tiny_config(), 2), cache=None)
        assert parts_memo()["entries"] == 1
        fastpath.clear_all()
        assert parts_memo()["entries"] == 0


@pytest.mark.usefixtures("fresh_batch_state")
def test_threads_share_parts_exactly():
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
    misses = counters["memo.chip.parts.misses"]
    # Threads missing one structure at once each build it.
    assert len(structures) <= misses <= 4 * len(structures)
    assert counters["memo.chip.parts.hits"] == len(configs) - misses
    assert counters["memo.chip.parts.entries"] == len(structures)

"""Building a chip reads no clock.

``Processor.report(clock_hz=f2)`` on a chip built at ``f1`` must equal
the report of a chip built at ``f2``, bit for bit, including clocks on
opposite sides of a shared cache's bank-saturation kink (where the
clock response bends). The batch backend's compiles and the engine's
one built chip per structure and temperature both rely on it; the
engine half checks that a scalar evaluation after one at another clock
still equals the exact unmemoized evaluation, with and without a
workload run (which must build its own chip).
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import fastpath
from repro.chip import Processor
from repro.chip.export import result_to_dict
from repro.config.presets import VALIDATION_PRESETS
from repro.config.schema import (
    MemoryControllerConfig,
    SharedCacheConfig,
    SystemConfig,
)
from repro.engine import evaluate_config
from repro.perf.workload import SPLASH2_PROFILES
from repro.tech import SUPPORTED_NODES_NM
from repro.units import KB

from tests.test_cross_layer_properties import CORE_CONFIGS

#: A clock as a multiple of the lowest shared-cache kink: below it or
#: above it, so a drawn pair often straddles it.
KINK_FACTORS = (
    st.floats(min_value=0.5, max_value=0.95)
    | st.floats(min_value=1.05, max_value=2.0)
)


def kink_hz(config: SystemConfig) -> float:
    """The lowest bank-saturation clock of the chip's shared caches."""
    processor = Processor(config)
    return min(
        1.0 / max(cache.cache.access_time, cache.cache.cycle_time)
        for cache in (processor.l2, processor.l3) if cache is not None
    )


def assert_clock_free(config: SystemConfig, f1: float, f2: float) -> None:
    def at(clock_hz: float) -> SystemConfig:
        return dataclasses.replace(config, clock_hz=clock_hz)

    reevaluated = Processor(at(f1)).report(None, clock_hz=f2)
    assert result_to_dict(reevaluated) == result_to_dict(
        Processor(at(f2)).report()
    )

    lu = SPLASH2_PROFILES["lu"]
    evaluate_config(at(f1))
    records = [evaluate_config(at(f2)), evaluate_config(at(f2), lu)]
    with fastpath.disabled():
        exact = [evaluate_config(at(f2)), evaluate_config(at(f2), lu)]
    assert records == exact


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

"""Instrumentation must not perturb a single reported number.

The acceptance bar for the observability layer: building the same chip
with tracing on and off yields bit-identical reports on every
validation preset, and the engine path (cache + pool instrumentation)
returns the same records either way.
"""

import pytest

from repro import obs
from repro.chip import Processor
from repro.config import presets
from repro.engine import EvalCache, evaluate_many, metrics_snapshot

from tests.conftest import make_tiny_config


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


@pytest.mark.parametrize("preset_name", sorted(presets.VALIDATION_PRESETS))
def test_report_bit_identical_with_tracing_on(preset_name):
    config = presets.VALIDATION_PRESETS[preset_name]()
    baseline = Processor(config)
    report_off = baseline.report()
    tdp_off = baseline.tdp
    area_off = baseline.area

    obs.enable(detail=True)
    traced_build = Processor(config)
    report_on = traced_build.report()
    obs.disable()

    assert report_on == report_off
    assert traced_build.tdp == tdp_off
    assert traced_build.area == area_off
    assert len(obs.spans()) > 0  # tracing actually happened


def test_engine_records_identical_with_tracing_on():
    configs = [make_tiny_config(), make_tiny_config(n_cores=2)]
    baseline = evaluate_many(configs, cache=None)

    cache = EvalCache()
    obs.enable()
    traced_records = evaluate_many(configs, cache=cache)
    obs.disable()

    assert traced_records == baseline
    snap = metrics_snapshot(cache)
    assert snap.counter("engine.cache.misses") == pytest.approx(2.0)

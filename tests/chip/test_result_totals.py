"""Stored totals equal the recursive definitions, bit for bit.

A :class:`ComponentResult` computes its inclusive totals once, at
construction, from its children's stored totals. The recursive
definitions below are the ones the tree used when every total was a
property that walked its subtree; every node of every tree here must
store exactly what they compute (compared by ``float.hex``).
"""

import dataclasses

import pytest

from repro.activity import CoreActivity
from repro.chip import Processor
from repro.chip.results import ComponentResult
from repro.config.presets import VALIDATION_PRESETS
from repro.core import Core
from repro.engine.record import tdp_metrics
from repro.perf import MulticoreSimulator
from repro.perf.workload import SPLASH2_PROFILES

from tests.chip.test_power_gating import GATED, TECH


def _fold(values):
    """``values`` added left to right from the int 0: builtin ``sum()``
    through Python 3.11 (since 3.12 it compensates float rounding)."""
    total = 0
    for value in values:
        total += value
    return total


def _area(node):
    return node.area + _fold(_area(c) for c in node.children)


def _peak_dynamic(node):
    return node.peak_dynamic_power + _fold(
        _peak_dynamic(c) for c in node.children
    )


def _runtime_dynamic(node):
    return node.runtime_dynamic_power + _fold(
        _runtime_dynamic(c) for c in node.children
    )


def _leakage(node):
    return node.leakage_power + _fold(_leakage(c) for c in node.children)


def _effective_leakage(node):
    if node.runtime_leakage_power is not None:
        return node.runtime_leakage_power
    return node.leakage_power


def _runtime_leakage(node):
    return _effective_leakage(node) + _fold(
        _runtime_leakage(c) for c in node.children
    )


def recursive_totals(node):
    """The totals of ``node`` by the recursive definitions."""
    return {
        "effective_runtime_leakage": _effective_leakage(node),
        "total_area": _area(node),
        "total_peak_dynamic_power": _peak_dynamic(node),
        "total_runtime_dynamic_power": _runtime_dynamic(node),
        "total_leakage_power": _leakage(node),
        "total_runtime_leakage_power": _runtime_leakage(node),
        "total_peak_power": _peak_dynamic(node) + _leakage(node),
        "total_runtime_power": (
            _runtime_dynamic(node) + _runtime_leakage(node)
        ),
    }


def assert_totals_are_recursive(tree):
    for node in tree.walk():
        for name, want in recursive_totals(node).items():
            got = getattr(node, name)
            assert (type(got), float(got).hex()) == (
                type(want), float(want).hex()), (node.name, name)


@pytest.mark.parametrize("preset", sorted(VALIDATION_PRESETS))
def test_preset_tdp_tree(preset):
    assert_totals_are_recursive(
        Processor(VALIDATION_PRESETS[preset]()).report(None)
    )


@pytest.mark.parametrize("preset, workload", [
    ("alpha21364", "fft"),
    ("niagara1", "lu"),
    ("niagara2", "barnes"),
    ("xeon_tulsa", "ocean"),
])
def test_preset_runtime_tree(preset, workload):
    processor = Processor(VALIDATION_PRESETS[preset]())
    activity = MulticoreSimulator(processor).run(
        SPLASH2_PROFILES[workload]
    ).activity
    tree = processor.report(activity)
    assert tree.total_runtime_dynamic_power > 0.0
    assert_totals_are_recursive(tree)


def test_power_gated_core():
    tree = Core(TECH, GATED).result(
        2e9, CoreActivity(ipc=0.4, duty_cycle=0.3),
    )
    gated = [n for n in tree.walk() if n.runtime_leakage_power is not None]
    assert gated, "the activity should gate the core's leakage"
    assert tree.total_runtime_leakage_power < tree.total_leakage_power
    assert_totals_are_recursive(tree)


@pytest.mark.parametrize("factor", [0.0, 3.0, 7.25])
def test_scaled_subtree(factor):
    gated = Core(TECH, GATED).result(
        2e9, CoreActivity(ipc=0.4, duty_cycle=0.3),
    )
    core = Processor(VALIDATION_PRESETS["niagara1"]()).tdp_core_result
    for tree in (gated, core):
        scaled = tree.scaled(factor)
        assert_totals_are_recursive(scaled)
        assert scaled.total_area == pytest.approx(factor * tree.total_area)


def test_signed_zero_and_int_metrics():
    tree = ComponentResult(name="root", area=1e-6, children=(
        ComponentResult(name="zero", area=-0.0, leakage_power=-0.0,
                        runtime_leakage_power=-0.0),
        ComponentResult(name="ints", area=2, peak_dynamic_power=3),
    ))
    assert_totals_are_recursive(tree)


@pytest.mark.parametrize("field", [
    "area", "peak_dynamic_power", "runtime_dynamic_power",
    "leakage_power", "runtime_leakage_power",
])
def test_negative_metric_names_its_field(field):
    with pytest.raises(ValueError, match=f"^{field} must be non-negative"):
        ComponentResult(name="bad", **{field: -1.0})


def test_tdp_metrics_evaluates_the_core_once(monkeypatch):
    config = VALIDATION_PRESETS["niagara1"]()
    tdp_metrics(Processor(config))  # the chip's parts are now built
    clocks = []
    real_result = Core.result

    def counting(self, clock_hz, activity=None):
        clocks.append(clock_hz)
        return real_result(self, clock_hz, activity)

    monkeypatch.setattr(Core, "result", counting)
    new_clock = dataclasses.replace(config, clock_hz=config.clock_hz * 1.01)
    processor = Processor(new_clock)
    metrics = tdp_metrics(processor)
    assert clocks == [new_clock.clock_hz]
    core = processor.tdp_core_result
    assert metrics["core_area_mm2"] == core.total_area * 1e6
    assert metrics["core_leakage_w"] == core.total_leakage_power
    cores = processor.report(None).child(f"Cores (x{config.n_cores})")
    assert cores.children == (core.scaled(config.n_cores),)

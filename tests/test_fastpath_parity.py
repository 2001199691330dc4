"""Numerical-parity guarantees of the evaluation fast path.

The fast path is the process-wide memos, and ``repro.fastpath.disabled()``
bypasses them and changes nothing else. The memos must change *nothing*
about the numbers: every validation preset's report has to match the
unmemoized one exactly, field for field. The repeater solves its delay
optimum in a Bakoglu-seeded window of its grid; the full-grid sweep it
must agree with is written out here as the reference.
"""

import dataclasses

import pytest

from repro import fastpath
from repro.array import ArraySpec, build_array, search_organizations
from repro.array.organization import candidate_organizations
from repro.chip import Processor
from repro.chip.processor import _PARTS
from repro.circuit import RepeatedWire
from repro.circuit.repeater import _SIZES, _SPACINGS
from repro.config import presets
from repro.tech import SUPPORTED_NODES_NM, DeviceType, Technology
from repro.tech.wire import WireType

TECH = Technology(node_nm=65, temperature_k=360)


def _flatten(result):
    """Every (path, field, value) triple of a ComponentResult tree."""
    for field in dataclasses.fields(result):
        if field.name == "children":
            continue
        yield result.name, field.name, getattr(result, field.name)
    for child in result.children:
        yield from _flatten(child)


@pytest.mark.parametrize("preset", tuple(presets.VALIDATION_PRESETS))
def test_preset_reports_identical(preset):
    """Memoized-vs-exact parity, exact equality on every field."""
    build = presets.VALIDATION_PRESETS[preset]
    with fastpath.disabled():
        exact = Processor(build()).report()
        exact_again = Processor(build()).report()
    # Disabled-mode evaluation is deterministic: two exact-path runs of
    # the same preset must be bit-identical, with no memo involvement.
    assert exact == exact_again
    fastpath.clear_all()
    cold = Processor(build()).report()
    again = Processor(build()).report()
    # A rebuild with the lower memos warm, as for a config evicted from
    # the chip.parts memo.
    _PARTS.clear()
    hits = fastpath.stats()["build_array"]["hits"]
    warm = Processor(build()).report()
    assert fastpath.stats()["build_array"]["hits"] > hits

    for (path_a, field_a, value_a), (path_b, field_b, value_b) in zip(
        _flatten(exact), _flatten(cold), strict=True,
    ):
        assert (path_a, field_a) == (path_b, field_b)
        assert value_a == value_b, (
            f"{preset}: {path_a}.{field_a} differs: {value_a} != {value_b}"
        )
    assert cold == again == warm
    assert exact == cold


def test_build_array_parity_and_sharing():
    spec = ArraySpec(name="parity", entries=1024, width_bits=256)
    with fastpath.disabled():
        exact = build_array(TECH, spec)
    first = build_array(TECH, spec)
    again = build_array(TECH, spec)
    assert first == exact
    assert again is first  # memo shares the immutable result


def test_search_is_the_same_without_memos():
    """The search scores every tiling ``candidate_organizations``
    yields, and without the memos it ranks them in the same order with
    the same numbers, and so picks the same winner."""
    spec = ArraySpec(name="x", entries=8192, width_bits=512)
    fast = search_organizations(TECH, spec)
    with fastpath.disabled():
        full = search_organizations(TECH, spec)
    tilings = list(candidate_organizations(spec))
    assert sorted(
        (c.ndwl, c.ndbl, c.nspd) for c in fast
    ) == sorted((o.ndwl, o.ndbl, o.nspd) for o in tilings)
    assert fast == full
    assert fast[0].organization == full[0].organization


def _full_grid(tech, wire_type):
    """(delay per length, size index, spacing index) at every point of
    the repeater's size x spacing grid, each scored through
    ``_segment_delay``."""
    wire = RepeatedWire(tech, wire_type)
    return [
        (wire._segment_delay(size, spacing) / spacing, i, j)
        for i, size in enumerate(_SIZES)
        for j, spacing in enumerate(_SPACINGS)
    ]


def _full_grid_optimum(scored, penalty):
    """The design point an exhaustive sweep picks: the minimum delay per
    length (row-major ties), then, under a delay penalty, the least
    repeater width per meter within the delay budget."""
    best_value, i, j = min(scored)
    if penalty > 1.0:
        _, i, j = min(
            (_SIZES[i] / _SPACINGS[j], i, j)
            for value, i, j in scored if value <= best_value * penalty
        )
    return _SIZES[i], _SPACINGS[j], scored[i * len(_SPACINGS) + j][0]


def test_repeater_window_matches_full_grid():
    """The Bakoglu-seeded window finds the full grid's design point at
    every node, flavor, temperature, supply, plane and penalty."""
    cases = 0
    for node in SUPPORTED_NODES_NM:
        for flavor in DeviceType:
            for temperature_k in (300.0, 380.0):
                nominal = Technology(node, temperature_k, flavor)
                for tech in (nominal, nominal.at_voltage(0.85 * nominal.vdd)):
                    for wire_type in WireType:
                        scored = _full_grid(tech, wire_type)
                        for penalty in (1.0, 1.5):
                            wire = RepeatedWire(tech, wire_type, penalty)
                            assert wire._optimum == _full_grid_optimum(
                                scored, penalty,
                            ), (tech, wire_type, penalty)
                            cases += 1
    assert cases == 6 * 3 * 2 * 2 * 3 * 2


def test_disabled_context_restores_fast_path():
    spec = ArraySpec(name="restore", entries=256, width_bits=64)
    build_array(TECH, spec)
    hits_before = fastpath.stats()["build_array"]["hits"]
    misses_before = fastpath.stats()["build_array"]["misses"]
    with fastpath.disabled():
        disabled_result = build_array(TECH, spec)
    # The disabled path bypasses the content-hash memo completely: no
    # hit, no miss, and a result built fresh (not the shared instance).
    assert fastpath.stats()["build_array"]["hits"] == hits_before
    assert fastpath.stats()["build_array"]["misses"] == misses_before
    assert disabled_result is not build_array(TECH, spec)
    assert disabled_result == build_array(TECH, spec)
    assert fastpath.stats()["build_array"]["hits"] == hits_before + 2

"""Flat sweeps: every point is derived from one template config.

A flat sweep sets only top-level leaf fields, so its points keep the
template's field texts with their axis fields' texts swapped in, and
keying one walks nothing. These tests pin what that must not change:
each point's keys are those of the same config built from its dict
form, and follow the key formula; a field that could change its text
keeps none; and only the template is walked.
"""

import dataclasses
import math

import pytest

from repro import batch, fastpath
from repro.config.loader import (
    chip_key,
    system_config_from_dict,
    system_config_to_dict,
)
from repro.config.schema import SystemConfig
from repro.engine import EvalCache, SweepSpec, config_key, run_sweep, sweep
from repro.tech.device import DeviceType

from tests.conftest import make_tiny_config
from tests.engine.test_keys import reference_key

needs_numpy = pytest.mark.skipif(
    not batch.have_numpy(), reason="numpy not installed"
)

pytestmark = pytest.mark.usefixtures("fresh_batch_state")

BACKENDS = ["scalar", pytest.param("numpy", marks=needs_numpy)]


def freqs(n):
    return tuple(1.0e9 + 0.5e6 * i for i in range(n))


def assert_keys_exact(config):
    """``config`` keys as its rebuilt copy does, and as the formula says."""
    rebuilt = system_config_from_dict(system_config_to_dict(config))
    assert rebuilt == config
    assert config_key(config) == config_key(rebuilt)
    assert chip_key(config) == chip_key(rebuilt)
    assert config_key(config) == reference_key(config)


def kept_texts(config):
    return "_canonical_fields" in vars(config)


#: One axis per kind of flat leaf, crossed with a float clock axis.
LEAF_AXES = {
    "float": {},  # the clock axis alone
    # An int and a float: the class change rebuilds the template.
    "int-and-float": {"temperature_k": (330, 340.0, 330)},
    # Equal values with two texts: never looked up by value.
    "signed-zero": {"io_peak_power_w": (0.0, -0.0, 0.0)},
    "quoted-non-ascii": {"name": ('say "hi"', "Zürich \\ ✓")},
    "int": {"n_cores": (1, 2)},
    "nullable": {"vdd_v": (None, 0.95, 1.0)},
    # Built through from_dict: a string becomes a DeviceType.
    "enum-string": {"device_type": ("hp", "lop")},
}

KINDS = [*sorted(LEAF_AXES), pytest.param("numpy", marks=needs_numpy)]

#: Per backend, its chunk-size constant in ``repro.engine.sweep`` and a
#: size that a sweep of tens of points crosses. A numpy chunk of 16
#: gives each built chip of every kind's first chunk at least 4 points,
#: so every group compiles (the backend's ``_MIN_GROUP_POINTS`` rule)
#: and a chip's last points extend its fit across the boundary: every
#: point vectorizes.
CHUNKS = {"scalar": ("_SCALAR_CHUNK_POINTS", 4),
          "numpy": ("_BATCH_CHUNK_POINTS", 16)}


def leaf_sweep(kind, n_points):
    """``kind``'s axis crossed with enough clocks for ``n_points``."""
    if kind == "numpy":
        np = batch.get_numpy()
        leaf = {"temperature_k": np.array([330.0, 350.0])}
    else:
        leaf = LEAF_AXES[kind]
    per_clock = math.prod(len(values) for values in leaf.values())
    clocks = freqs(-(-n_points // per_clock))
    if kind == "numpy":
        clocks = np.array(clocks)
    return SweepSpec.from_axes(
        make_tiny_config(), {**leaf, "clock_hz": clocks},
    )


class TestPointKeys:
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_point_keys_as_its_rebuilt_config(self, kind):
        spec = leaf_sweep(kind, 6)
        points = list(spec.iter_points())
        assert len(points) == spec.n_points >= 6
        for point in points:
            assert_keys_exact(point.config)
        # Texts are never looked up by value: 0.0 and -0.0, or 330 and
        # 330.0, key apart, as their reprs differ.
        assert len({config_key(p.config) for p in points}) == len(
            {repr(tuple(p.overrides.values())) for p in points}
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_records_across_a_chunk_boundary(self, kind, backend,
                                             monkeypatch):
        name, chunk = CHUNKS[backend]
        monkeypatch.setattr(sweep, name, chunk)
        spec = leaf_sweep(kind, chunk + 1)
        results = run_sweep(spec, cache=EvalCache(), backend=backend)
        assert len(results) == spec.n_points > chunk
        assert {r.record.backend for r in results} == {backend}
        for result in results:
            assert_keys_exact(result.config)
            assert result.record.key == reference_key(result.config)

    def test_derived_points_keep_their_texts_from_birth(self):
        spec = SweepSpec.from_axes(make_tiny_config(), {
            "vdd_v": (None, 0.95), "clock_hz": freqs(2),
        })
        stream = (point.config for point in spec.iter_points())
        template = next(stream)
        assert not kept_texts(template)  # built from its dict
        assert kept_texts(next(stream))  # derived
        assert kept_texts(template)  # read once, to derive
        # None -> 0.95 changes the class: a new template.
        template = next(stream)
        assert template.vdd_v == pytest.approx(0.95)
        assert not kept_texts(template)
        assert kept_texts(next(stream))

    def test_enum_string_points_are_each_built_from_their_dict(self):
        spec = leaf_sweep("enum-string", 4)
        points = [p.config for p in spec.iter_points()]
        assert {c.device_type for c in points} == {
            DeviceType.HP, DeviceType.LOP,
        }
        assert not any(kept_texts(c) for c in points)

    @needs_numpy
    def test_numpy_values_key_as_floats(self):
        float64 = batch.get_numpy().float64
        for config in [p.config for p in leaf_sweep("numpy", 6).iter_points()]:
            assert type(config.clock_hz) is float64
            assert kept_texts(config)  # a float subclass keeps its text
            plain = dataclasses.replace(
                config, clock_hz=float(config.clock_hz),
                temperature_k=float(config.temperature_k),
            )
            assert config_key(config) == config_key(plain)


class TestMutableFields:
    def test_a_template_holding_a_list_keeps_no_texts(self):
        template = make_tiny_config(name=["tiny"])
        derive = fastpath.CanonicalEncoder().derivation(
            [("clock_hz", freqs(2))],
        )
        point = derive(template, (1,))
        assert point.clock_hz == freqs(2)[1]
        first = config_key(point)
        assert not kept_texts(template) and not kept_texts(point)
        assert config_key(point) == first == reference_key(point)
        point.name.append("renamed")
        assert config_key(point) != first
        assert config_key(point) == reference_key(point)

    def test_an_axis_value_holding_a_list_keeps_no_texts(self):
        derive = fastpath.CanonicalEncoder().derivation(
            [("name", ("tiny", ["tiny"]))],
        )
        template = make_tiny_config()
        assert kept_texts(derive(template, (0,)))
        point = derive(template, (1,))
        assert not kept_texts(point)
        first = config_key(point)
        point.name.append("renamed")
        assert config_key(point) != first


class TestOneWalkPerTemplate:
    """The mechanism, counted rather than timed: keying and evaluating
    a derived point never walks its config's fields."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_flat_sweep_walks_only_its_template(self, backend, monkeypatch):
        spec = SweepSpec.from_axes(make_tiny_config(), {
            "vdd_v": (0.95, 1.0),
            "clock_hz": freqs(3),
            "temperature_k": (340.0, 360.0),
        })
        # Warm: chips built and fits compiled, so only points are keyed.
        run_sweep(spec, cache=None, backend=backend)

        walked = []
        walk = fastpath.CanonicalEncoder._object

        def counting(self, obj, *args, **kwargs):
            if isinstance(obj, SystemConfig) and not kept_texts(obj):
                walked.append(obj)
            return walk(self, obj, *args, **kwargs)

        monkeypatch.setattr(fastpath.CanonicalEncoder, "_object", counting)
        results = run_sweep(spec, cache=EvalCache(), backend=backend)
        assert len(results) == spec.n_points == 12
        assert len(walked) == 1 and walked[0] is results[0].config

"""Sweeps under the batch backend: laziness, cache keys, resume."""

import itertools
import json
from typing import Iterator

import pytest

from repro import batch
from repro.engine import (
    EvalCache,
    SweepAxis,
    SweepSpec,
    config_key,
    run_sweep,
)
from repro.tech.device import DeviceType

from tests.conftest import make_tiny_config
from tests.engine.test_keys import reference_key

needs_numpy = pytest.mark.skipif(
    not batch.have_numpy(), reason="numpy not installed"
)

pytestmark = pytest.mark.usefixtures("fresh_batch_state")


def freqs(n, base_hz=1.0e9):
    return tuple(base_hz * (1.0 + 0.05 * i) for i in range(n))


class TestLazyGrid:
    def test_iter_points_is_a_generator(self):
        spec = SweepSpec.from_axes(
            make_tiny_config(), {"clock_hz": freqs(3)})
        stream = spec.iter_points()
        assert isinstance(stream, Iterator)

    def test_large_grid_streams_without_materializing(self):
        # 100k points: building them all would take minutes; taking the
        # first two must be instant because the grid is a stream.
        spec = SweepSpec.from_axes(
            make_tiny_config(),
            {"clock_hz": freqs(1000), "temperature_k": tuple(
                300.0 + i for i in range(100)
            )},
        )
        assert spec.n_points == 100_000
        first, second = itertools.islice(spec.iter_points(), 2)
        assert first.config.clock_hz == pytest.approx(1.0e9)
        assert second.overrides["temperature_k"] == 301

    def test_replace_fast_path_matches_from_dict(self):
        # Same grid built twice; the template-config shortcut must not
        # change what comes out (notably validator-derived state).
        spec = SweepSpec.from_axes(
            make_tiny_config(),
            {"cores": (1, 2), "clock_hz": freqs(2)},
        )
        for point in spec.iter_points():
            rebuilt = make_tiny_config(
                n_cores=point.config.n_cores,
                clock_hz=point.config.clock_hz,
            )
            assert config_key(point.config, None) == config_key(
                rebuilt, None
            )

    def test_replace_fast_path_keeps_type_checks(self):
        # A bool is an int subclass: it must not ride the replace
        # shortcut past the loader's type check.
        spec = SweepSpec.from_axes(make_tiny_config(), {"cores": (1, True)})
        with pytest.raises(ValueError,
                           match="config.n_cores: expected int, got bool"):
            list(spec.iter_points())

    def test_enum_axis_builds_typed_configs(self):
        spec = SweepSpec.from_axes(
            make_tiny_config(),
            {"device_type": ("hp", "lop"), "clock_hz": freqs(2)},
        )
        kinds = [p.config.device_type for p in spec.iter_points()]
        assert all(isinstance(kind, DeviceType) for kind in kinds)
        assert kinds[0] != kinds[2]


class TestKeyTemplate:
    """Every key a sweep renders for a point follows the key formula.

    The formula (``reference_key``, the ``json.dumps`` of the point's
    dict form) shares no text with the encoder, so a text a point kept
    wrongly cannot pass by being read on both sides.
    """

    def assert_keys_exact(self, spec):
        results = run_sweep(spec, cache=EvalCache())
        assert len(results) == spec.n_points
        for result in results:
            assert result.record.key == reference_key(result.config)
        return results

    def test_scalar_axes_render_exact_keys(self):
        spec = SweepSpec.from_axes(
            make_tiny_config(),
            {"clock_hz": freqs(3), "temperature_k": (340.0, 360.0)},
        )
        results = self.assert_keys_exact(spec)
        assert len({r.record.key for r in results}) == spec.n_points

    def test_alias_and_dotted_axes_render_exact_keys(self):
        spec = SweepSpec.from_axes(
            make_tiny_config(),
            {"cores": (1, 2), "core.issue_width": (1, 2)},
        )
        results = self.assert_keys_exact(spec)
        assert len({r.record.key for r in results}) == spec.n_points

    def test_enum_string_axis_falls_back_to_exact_keys(self):
        # "hp" is swept as a string but built as a DeviceType; its key
        # encodes the enum by value, as config_key does.
        spec = SweepSpec.from_axes(
            make_tiny_config(),
            {"device_type": ("hp", "lop"), "clock_hz": freqs(2)},
        )
        self.assert_keys_exact(spec)

    def test_shadowed_axis_cannot_be_templated(self):
        # Two axes addressing the same field (built directly, since
        # from_axes rejects them): the later axis wins, and each key is
        # still the exact key of the config that was built.
        spec = SweepSpec(
            base=make_tiny_config(),
            axes=(
                SweepAxis("cores", "n_cores", (1, 2)),
                SweepAxis("n_cores", "n_cores", (3, 4)),
            ),
        )
        results = self.assert_keys_exact(spec)
        assert {r.config.n_cores for r in results} == {3, 4}


@needs_numpy
class TestBatchSweep:
    def test_numpy_sweep_matches_scalar_sweep(self):
        spec = SweepSpec.from_axes(
            make_tiny_config(),
            {"cores": (1, 2), "clock_hz": freqs(5)},
        )
        scalar = run_sweep(spec, cache=EvalCache())
        vectorized = run_sweep(
            spec, cache=EvalCache(), backend="numpy",
        )
        assert batch.counters()["points_vectorized"] == spec.n_points
        assert [r.record.key for r in vectorized] == [
            r.record.key for r in scalar
        ]
        for ref, got in zip(scalar, vectorized):
            assert got.overrides == ref.overrides
            assert got.record.backend == "numpy"
            assert got.record.tdp_w == pytest.approx(
                ref.record.tdp_w, rel=1e-9
            )
            assert got.record.area_mm2 == pytest.approx(
                ref.record.area_mm2, rel=1e-9
            )

    def test_resume_skips_batch_completed_groups(self, tmp_path):
        log = tmp_path / "sweep.jsonl"
        full = SweepSpec.from_axes(
            make_tiny_config(),
            {"cores": (1, 2), "clock_hz": freqs(12)},
        )
        half = SweepSpec.from_axes(
            make_tiny_config(),
            {"cores": (1, 2), "clock_hz": freqs(12)[:4]},
        )
        # Stage 1: a scalar run covers a third of the grid.
        run_sweep(half, cache=EvalCache(path=log))
        assert len(log.read_text().splitlines()) == 8

        # Stage 2: the numpy run resumes — logged points must be served
        # from the log, the remainder vectorized.
        cache = EvalCache(path=log)
        results = run_sweep(full, cache=cache, backend="numpy")
        assert len(results) == full.n_points
        resumed = [r for r in results if r.record.from_cache]
        assert len(resumed) == 8
        assert cache.misses == 16
        assert batch.counters()["points_vectorized"] == 16

        # The log now holds the whole grid, keyed identically to what a
        # pure scalar run computes.
        entries = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert len(entries) == full.n_points
        scalar = run_sweep(full, cache=EvalCache())
        assert {e["key"] for e in entries} == {
            r.record.key for r in scalar
        }

        # Stage 3: resuming a finished sweep evaluates nothing.
        cache = EvalCache(path=log)
        again = run_sweep(full, cache=cache, backend="numpy")
        assert cache.misses == 0
        assert all(r.record.from_cache for r in again)

    def test_structural_fallback_group_stays_scalar(self):
        # Two points per structure group sit below the compile
        # threshold; the sweep must still return them (scalar path),
        # with the fallback visible in the counters.
        spec = SweepSpec.from_axes(
            make_tiny_config(),
            {"cores": (1, 2), "clock_hz": freqs(2)},
        )
        results = run_sweep(spec, cache=EvalCache(), backend="numpy")
        assert len(results) == 4
        assert all(r.record.backend == "scalar" for r in results)
        assert batch.counters()["points_fallback"] == 4

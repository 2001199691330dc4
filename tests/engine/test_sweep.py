"""Tests for declarative sweeps: grids, aliases, resume from the cache log."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import batch
from repro.engine import (
    EvalCache,
    SweepSpec,
    format_sweep_table,
    run_sweep,
)

from tests.conftest import make_tiny_config


@pytest.fixture(scope="module")
def spec():
    return SweepSpec.from_axes(
        make_tiny_config(),
        {"cores": (1, 2), "clock_hz": (1.0e9, 2.0e9)},
    )


@pytest.fixture(scope="module")
def results(spec):
    return run_sweep(spec, cache=EvalCache())


class TestSpec:
    def test_cross_product_size_and_order(self, spec):
        assert spec.n_points == 4
        points = list(spec.iter_points())
        # Last axis varies fastest.
        assert [p.overrides for p in points] == [
            {"cores": 1, "clock_hz": 1.0e9},
            {"cores": 1, "clock_hz": 2.0e9},
            {"cores": 2, "clock_hz": 1.0e9},
            {"cores": 2, "clock_hz": 2.0e9},
        ]

    def test_alias_reaches_config_field(self, spec):
        points = list(spec.iter_points())
        assert points[0].config.n_cores == 1
        assert points[2].config.n_cores == 2
        assert points[1].config.clock_hz == pytest.approx(2.0e9)

    def test_dotted_path_reaches_nested_field(self):
        spec = SweepSpec.from_axes(
            make_tiny_config(), {"core.issue_width": (1, 2)})
        widths = [p.config.core.issue_width for p in spec.iter_points()]
        assert widths == [1, 2]

    def test_unknown_axis_rejected_with_candidates(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            SweepSpec.from_axes(make_tiny_config(), {"warp_factor": (9,)})
        with pytest.raises(ValueError, match="issue_width"):
            SweepSpec.from_axes(
                make_tiny_config(), {"core.warp_factor": (9,)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            SweepSpec.from_axes(make_tiny_config(), {"cores": ()})

    @pytest.mark.parametrize("axis, value", [
        ("name", "abc"),  # not the points "a", "b" and "c"
        ("clock_hz", b"ab"),  # not 97 and 98
        ("clock_hz", {"a": 1}),  # not its key
        ("clock_hz", 1e9),
        ("clock_hz", None),
    ], ids=["str", "bytes", "mapping", "float", "none"])
    def test_one_value_is_not_an_axis(self, axis, value):
        with pytest.raises(ValueError, match=(
            f"axis '{axis}' needs a list of values, "
            f"got {type(value).__name__} "
        )):
            SweepSpec.from_axes(make_tiny_config(), {axis: value})

    def test_no_axes_rejected(self):
        with pytest.raises(ValueError, match="at least one axis"):
            SweepSpec.from_axes(make_tiny_config(), {})

    @pytest.mark.skipif(not batch.have_numpy(),
                        reason="numpy not installed")
    def test_numpy_axis_is_the_list_of_its_values(self):
        np = batch.get_numpy()
        clocks = np.linspace(1.0e9, 2.0e9, 3)
        from_array, from_list = (
            SweepSpec.from_axes(make_tiny_config(), {"clock_hz": values})
            for values in (clocks, list(clocks))
        )
        assert list(from_array.iter_points()) == list(
            from_list.iter_points()
        )
        keys = [
            [result.record.key for result in run_sweep(spec, cache=None)]
            for spec in (from_array, from_list)
        ]
        assert keys[0] == keys[1]
        assert len(set(keys[0])) == 3

    @pytest.mark.parametrize("axis, bad, good", [
        ("cores", 0, 1), ("clock_hz", -1.0, 1.0e9),
    ])
    def test_invalid_value_message_is_independent_of_position(
        self, axis, bad, good,
    ):
        messages = set()
        for values in ((bad, good), (good, bad)):
            spec = SweepSpec.from_axes(make_tiny_config(), {axis: values})
            with pytest.raises(ValueError) as exc:
                list(spec.iter_points())
            messages.add(str(exc.value))
        (message,) = messages
        assert message.startswith("config: ")

    def test_axes_aliasing_one_field_rejected(self):
        # An alias and its target would label points cores=2 and
        # cores=4 whose configs both have 8 cores.
        with pytest.raises(
            ValueError, match="'cores' and 'n_cores' .*'n_cores'",
        ):
            SweepSpec.from_axes(
                make_tiny_config(), {"cores": (2, 4), "n_cores": (8,)},
            )


class TestRunSweep:
    def test_results_align_with_grid(self, spec, results):
        assert len(results) == 4
        for result in results:
            assert result.config.n_cores == result.overrides["cores"]
            assert result.record.tdp_w > 0

    def test_more_cores_cost_more(self, results):
        by_overrides = {
            (r.overrides["cores"], r.overrides["clock_hz"]): r.record
            for r in results
        }
        assert (by_overrides[(2, 1.0e9)].area_mm2
                > by_overrides[(1, 1.0e9)].area_mm2)

    def test_checkpoint_written_and_resumed(self, spec, tmp_path):
        log = tmp_path / "sweep.jsonl"
        first = run_sweep(spec, cache=EvalCache(path=log))
        assert len(log.read_text().splitlines()) == 4

        # Resume from the log in a fresh cache: nothing is re-evaluated.
        cold = EvalCache(path=log)
        second = run_sweep(spec, cache=cold)
        assert cold.misses == 0 and cold.hits == 4
        assert all(r.record.from_cache for r in second)
        assert [r.record for r in second] == [r.record for r in first]

    def test_resume_evaluates_exactly_the_remainder(
            self, spec, tmp_path):
        log = tmp_path / "sweep.jsonl"
        run_sweep(spec, cache=EvalCache(path=log))
        lines = log.read_text().splitlines()

        # Simulate an interrupt: only half the grid was logged.
        log.write_text("\n".join(lines[:2]) + "\n")
        cold = EvalCache(path=log)
        resumed = run_sweep(spec, cache=cold)
        assert cold.misses == 2  # exactly the missing half
        assert len(resumed) == 4
        finished = {
            json.loads(line)["key"]
            for line in log.read_text().splitlines()
        }
        assert len(finished) == 4

    def test_corrupt_checkpoint_lines_ignored(self, spec, tmp_path):
        log = tmp_path / "sweep.jsonl"
        run_sweep(spec, cache=EvalCache(path=log))
        with log.open("a") as handle:
            handle.write("{broken\n")
        cache = EvalCache(path=log)
        resumed = run_sweep(spec, cache=cache)
        assert cache.corrupt_lines_skipped == 1
        assert all(r.record.from_cache for r in resumed)

    def test_scalar_sweep_does_not_import_numpy(self):
        # numpy is imported on the first vectorized request only, so a
        # scalar sweep in a fresh interpreter never pays for it.
        root = Path(__file__).resolve().parents[2]
        script = (
            "import sys\n"
            "from repro.engine import SweepSpec, run_sweep\n"
            "from tests.conftest import make_tiny_config\n"
            "spec = SweepSpec.from_axes(make_tiny_config(), {'cores': [1]})\n"
            "assert len(run_sweep(spec, cache=None)) == 1\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", script], cwd=root, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        assert done.stdout.strip() == "False"


class TestFormatting:
    def test_table_has_axes_and_metrics(self, results):
        text = format_sweep_table(results)
        assert "cores" in text
        assert "clock_hz" in text
        assert "TDP W" in text

    def test_empty_table(self):
        assert "empty" in format_sweep_table([])

"""Unit tests for the configuration schema validation."""

import dataclasses
import math

import pytest

from repro.config import (
    BranchPredictorConfig,
    CacheGeometry,
    CoreConfig,
    MemoryControllerConfig,
    NiuConfig,
    NocConfig,
    NocTopology,
    SharedCacheConfig,
    SystemConfig,
)
from repro.config.loader import system_config_from_dict, system_config_to_dict


class TestCacheGeometry:
    def test_capacity_below_block_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(capacity_bytes=32, block_bytes=64)

    def test_negative_mshrs_rejected(self):
        with pytest.raises(ValueError):
            CacheGeometry(capacity_bytes=1024, mshr_entries=-1)


class TestBranchPredictorConfig:
    def test_defaults_valid(self):
        bp = BranchPredictorConfig()
        assert bp.btb_entries > 0

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            BranchPredictorConfig(btb_entries=0)


class TestCoreConfig:
    def test_inorder_defaults_valid(self):
        core = CoreConfig()
        assert not core.is_ooo

    def test_ooo_requires_rob(self):
        with pytest.raises(ValueError, match="rob_entries"):
            CoreConfig(is_ooo=True, phys_int_regs=64,
                       issue_window_entries=16)

    def test_ooo_requires_window(self):
        with pytest.raises(ValueError, match="issue_window_entries"):
            CoreConfig(is_ooo=True, phys_int_regs=64, rob_entries=32)

    def test_ooo_requires_physical_registers(self):
        with pytest.raises(ValueError, match="physical"):
            CoreConfig(is_ooo=True, rob_entries=32,
                       issue_window_entries=16, phys_int_regs=16)

    def test_valid_ooo(self):
        core = CoreConfig(is_ooo=True, rob_entries=64,
                          issue_window_entries=32, phys_int_regs=128)
        assert core.register_tag_bits == 7

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(issue_width=0)


class TestNocConfig:
    def test_defaults(self):
        assert NocConfig().topology is NocTopology.MESH_2D

    def test_narrow_flits_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(flit_bits=4)

    def test_separate_clock_requires_rate(self):
        with pytest.raises(ValueError):
            NocConfig(has_separate_clock=True, clock_hz=0)

    def test_negative_external_ports_rejected(self):
        with pytest.raises(ValueError):
            NocConfig(external_ports=-1)


class TestSharedCacheConfig:
    def test_defaults_valid(self):
        assert SharedCacheConfig().instances == 1

    def test_zero_instances_rejected(self):
        with pytest.raises(ValueError):
            SharedCacheConfig(instances=0)


class TestMemoryControllerConfig:
    def test_zero_channels_allowed(self):
        assert MemoryControllerConfig(channels=0).channels == 0

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            MemoryControllerConfig(peak_transfer_rate_mts=0)


class TestSystemConfig:
    def _base(self, **kwargs):
        defaults = dict(
            name="test", node_nm=65, clock_hz=2e9, n_cores=4,
            core=CoreConfig(),
        )
        defaults.update(kwargs)
        return SystemConfig(**defaults)

    def test_cycle_time(self):
        assert self._base(clock_hz=2e9).cycle_time == pytest.approx(0.5e-9)

    def test_zero_clock_rejected(self):
        with pytest.raises(ValueError):
            self._base(clock_hz=0)

    def test_bad_io_fraction_rejected(self):
        with pytest.raises(ValueError):
            self._base(io_area_fraction=0.95)

    def test_bad_whitespace_rejected(self):
        with pytest.raises(ValueError):
            self._base(whitespace_fraction=-0.1)


#: Float fields whose validators must reject NaN and infinity, as
#: (path from SystemConfig, field name the message must carry).
NON_FINITE_FIELDS = [
    (("clock_hz",), "clock_hz"),
    (("vdd_v",), "vdd_v"),
    (("io_peak_power_w",), "io_peak_power_w"),
    (("noc", "clock_hz"), "clock_hz"),
    (("memory_controller", "peak_transfer_rate_mts"),
     "peak_transfer_rate_mts"),
    (("niu", "bandwidth_gbps"), "bandwidth_gbps"),
]
NON_FINITE_VALUES = [math.nan, math.inf, -math.inf]


def _base_dict():
    config = SystemConfig(
        name="test", node_nm=65, clock_hz=2e9, n_cores=4,
        core=CoreConfig(), niu=NiuConfig(),
        noc=NocConfig(has_separate_clock=True, clock_hz=1e9),
    )
    return system_config_to_dict(config)


@pytest.mark.parametrize("value", NON_FINITE_VALUES, ids=repr)
@pytest.mark.parametrize("path, field", NON_FINITE_FIELDS,
                         ids=lambda p: ".".join(p) if isinstance(p, tuple)
                         else p)
class TestNonFiniteFloatsRejected:
    def test_loader_names_the_field(self, path, field, value):
        payload = _base_dict()
        target = payload
        for part in path[:-1]:
            target = target[part]
        target[path[-1]] = value
        with pytest.raises(ValueError, match=field):
            system_config_from_dict(payload)

    def test_direct_construction_names_the_field(self, path, field, value):
        base = system_config_from_dict(_base_dict())
        with pytest.raises(ValueError, match=field):
            if len(path) == 1:
                dataclasses.replace(base, **{field: value})
            else:
                dataclasses.replace(
                    getattr(base, path[0]), **{field: value},
                )


class TestNonFiniteSweepValues:
    @pytest.mark.parametrize("value", NON_FINITE_VALUES, ids=repr)
    def test_sweep_replace_shortcut_rejects(self, value):
        from repro.engine import SweepSpec, run_sweep

        base = system_config_from_dict(_base_dict())
        spec = SweepSpec.from_axes(base, {"clock_hz": [1e9, value]})
        with pytest.raises(ValueError, match="clock_hz"):
            run_sweep(spec, cache=None)

    def test_unused_noc_clock_must_still_be_finite(self):
        NocConfig(clock_hz=0.0)  # the default: no separate clock
        with pytest.raises(ValueError, match="clock_hz"):
            NocConfig(clock_hz=math.nan)


#: Well-typed niagara1 variants the model cannot build, with the error
#: the schema must raise first: ``(path, value, message)``.
MODEL_CONSTRAINT_VARIANTS = [
    ("temperature_k", 0,
     "config: temperature_k must be within [200, 500] K, got 0"),
    ("temperature_k", 1e4,
     "config: temperature_k must be within [200, 500] K, got 10000.0"),
    ("node_nm", 7,
     "config: node_nm must be one of 180, 90, 65, 45, 32, 22, got 7"),
    ("l2.banks", 3, "config.l2: banks must be a power of two, got 3"),
    ("l2.banks", 0, "config.l2: banks must be a power of two, got 0"),
    ("core.icache.banks", 3,
     "config.core.icache: banks must be a power of two, got 3"),
    ("l2.block_bytes", 3,
     "config.l2: block_bytes must be a power of two, got 3"),
    ("core.icache.block_bytes", 48,
     "config.core.icache: block_bytes must be a power of two, got 48"),
    ("l2.capacity_bytes", 3 * 1024 * 1024 + 64,
     "config.l2: capacity_bytes must divide into whole 12-way sets"),
    ("core.icache.associativity", 3,
     "config.core.icache: capacity_bytes must divide into whole 3-way "
     "sets"),
    ("core.dtlb_entries", 0, "config.core: dtlb_entries must be >= 1"),
    ("core.arch_int_regs", 0, "config.core: arch_int_regs must be >= 1"),
    ("core.arch_fp_regs", 0, "config.core: arch_fp_regs must be >= 1"),
    ("core.virtual_address_bits", 12,
     "config.core: virtual_address_bits must exceed the 12 page-offset "
     "bits, got 12"),
    ("l2.mshr_entries", -1,
     "config.l2: mshr_entries must be non-negative"),
]


def niagara1_variant(path, value):
    """niagara1's dict form with ``path`` (dotted) set to ``value``."""
    from repro.config import presets

    payload = system_config_to_dict(presets.niagara1())
    target = payload
    *parents, leaf = path.split(".")
    for part in parents:
        target = target[part]
    target[leaf] = value
    return payload


@pytest.mark.parametrize("path, value, message", MODEL_CONSTRAINT_VARIANTS,
                         ids=lambda v: str(v)[:24])
def test_model_constraints_fail_at_the_schema(path, value, message):
    with pytest.raises(ValueError) as exc:
        system_config_from_dict(niagara1_variant(path, value))
    assert str(exc.value).startswith(message)

"""Unit tests for presets and JSON persistence."""

import pytest

from repro.config import load_system_config, presets, save_system_config
from repro.config.loader import (
    system_config_from_dict,
    system_config_to_dict,
)
from repro.experiments import PUBLISHED


class TestPresets:
    @pytest.mark.parametrize("name", list(presets.VALIDATION_PRESETS))
    def test_validation_presets_construct(self, name):
        config = presets.VALIDATION_PRESETS[name]()
        assert config.n_cores >= 1
        assert config.clock_hz > 0

    def test_table1_configurations(self):
        """The paper's Table 1: each target is modeled at the node and
        clock of its published record, with its shipping core count."""
        cores = {"niagara1": 8, "niagara2": 8, "alpha21364": 1,
                 "xeon_tulsa": 2}
        for name, record in PUBLISHED.items():
            config = presets.VALIDATION_PRESETS[name]()
            assert (config.name, config.node_nm, config.clock_hz) == (
                record.name, record.node_nm, record.clock_hz)
            assert config.n_cores == cores[name], name

    def test_ooo_targets_are_ooo(self):
        assert presets.alpha21364().core.is_ooo
        assert presets.xeon_tulsa().core.is_ooo
        assert not presets.niagara1().core.is_ooo

    def test_tulsa_is_x86(self):
        assert presets.xeon_tulsa().core.is_x86

    def test_manycore_cluster_partitioning(self):
        config = presets.manycore_cluster(n_cores=64, cores_per_cluster=4)
        assert config.n_cores == 64
        assert config.l2.instances == 16
        assert config.l2.capacity_bytes == 4 * 512 * 1024

    def test_manycore_cluster_uneven_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            presets.manycore_cluster(n_cores=64, cores_per_cluster=3)


class TestLoader:
    @pytest.mark.parametrize("name", list(presets.VALIDATION_PRESETS))
    def test_dict_round_trip(self, name):
        config = presets.VALIDATION_PRESETS[name]()
        data = system_config_to_dict(config)
        rebuilt = system_config_from_dict(data)
        assert rebuilt == config

    def test_file_round_trip(self, tmp_path):
        config = presets.manycore_cluster(n_cores=16, cores_per_cluster=4)
        path = tmp_path / "chip.json"
        save_system_config(config, path)
        assert load_system_config(path) == config

    def test_dict_is_json_compatible(self):
        import json

        data = system_config_to_dict(presets.niagara1())
        json.dumps(data)  # must not raise


def _with(path, value):
    """niagara1's dict form with the dotted ``path`` set to ``value``."""
    data = system_config_to_dict(presets.niagara1())
    *parents, leaf = path.split(".")
    node = data
    for part in parents:
        node = node[part]
    node[leaf] = value
    return data


class TestLoaderTypeChecks:
    """Each case: a well-typed value loads, an ill-typed one is rejected
    with the field path named."""

    @pytest.mark.parametrize("path, good, bad, message", [
        ("l2.banks", 2, 4.0, "config.l2.banks: expected int, got float 4.0"),
        # float takes an int, but no string
        ("temperature_k", 350, "360",
         "config.temperature_k: expected float, got str '360'"),
        ("n_cores", 4, 8.5, "config.n_cores: expected int, got float 8.5"),
        ("n_cores", 4, True, "config.n_cores: expected int, got bool True"),
        ("clock_hz", 2.0e9, False,
         "config.clock_hz: expected float, got bool False"),
        ("core.is_ooo", False, 1,
         "config.core.is_ooo: expected bool, got int 1"),
        ("name", "chip", 7, "config.name: expected str, got int 7"),
        ("vdd_v", None, "1.2",
         "config.vdd_v: expected float or null, got str '1.2'"),
        ("core.icache.banks", 2, None,
         "config.core.icache.banks: expected int, got NoneType None"),
        ("l2", None, 4, "config.l2: expected object or null, got int 4"),
        ("noc", {}, None, "config.noc: expected object, got NoneType None"),
        ("device_type", "lop", "quantum",
         "config.device_type: expected one of hp, lstp, lop, "
         "got str 'quantum'"),
    ])
    def test_leaf_type_checked(self, path, good, bad, message):
        system_config_from_dict(_with(path, good))
        with pytest.raises(ValueError) as exc:
            system_config_from_dict(_with(path, bad))
        assert str(exc.value) == message

    def test_unknown_field_named(self):
        with pytest.raises(ValueError,
                           match=r"^config\.noc\.warp: unknown field$"):
            system_config_from_dict(_with("noc.warp", 1))

    def test_non_object_config_rejected(self):
        with pytest.raises(ValueError, match="config: expected object"):
            system_config_from_dict([1, 2])

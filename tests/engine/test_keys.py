"""The on-disk cache key format, pinned.

An :class:`~repro.engine.cache.EvalCache` log written by one release
must still hit in the next, so ``config_key`` must keep producing the
same bytes: these digests were computed by the release that introduced
them, and the hypothesis test spells out the formula they come from.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import batch
from repro.config import presets
from repro.config.loader import chip_key, system_config_to_dict
from repro.config.schema import (
    LinkSignaling,
    NiuConfig,
    NocConfig,
    NocTopology,
    PcieConfig,
    SharedCacheConfig,
    SystemConfig,
)
from repro.engine import SweepSpec, config_key
from repro.perf.workload import SPLASH2_PROFILES
from repro.tech import SUPPORTED_NODES_NM, DeviceType

from tests.test_cross_layer_properties import CORE_CONFIGS

#: ``(config_key(preset), config_key(preset, SPLASH2_PROFILES["lu"]))``.
PINNED_KEYS = {
    "niagara1": (
        "cc84894ccbf93c58b3743b0882eea3cc93be5a01c20a937e9d8de72fa4591077",
        "fa56defffd959a906d1ed74bdc0ecd3df88d4f0478075e33f81ee7fa2d550390",
    ),
    "niagara2": (
        "ba37f32c4eaaba83c01bfa10e7622cc4310385d874d35d4901f4d628d3a8223c",
        "954f0d3adc990df06669ef11db9ccdffd7ead3f07bff00f5e4df9d3d11f13087",
    ),
    "alpha21364": (
        "a1c5cdb00c1587de10550dadbcc42318553dee772631803c969b1ae276a603af",
        "623786f87bb590fc8713a0a82bd0b2574e1e75f32cf8703843a9c0c3f5a5acb4",
    ),
    "xeon_tulsa": (
        "8cac0c6f45cb70b0ba66e8536d0d899af2552a3fd7bf56452cc8d43b30fef8da",
        "e2caa483c9c48178e69e797b13567d4145735a9952afc8d3ae6412e2a5ed3d30",
    ),
}


def reference_key(config, workload=None):
    """The key formula every release must keep."""
    payload = {
        "v": 1,
        "config": system_config_to_dict(config),
        "workload": (
            dataclasses.asdict(workload) if workload is not None else None
        ),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_KEYS))
def test_preset_keys_are_pinned(name):
    config = presets.VALIDATION_PRESETS[name]()
    plain, with_workload = PINNED_KEYS[name]
    assert config_key(config) == plain
    assert config_key(config, SPLASH2_PROFILES["lu"]) == with_workload
    # Asked again, the sub-configs answer from the text they kept.
    assert config_key(config) == plain

    # The chip key ignores the clock, not the temperature or the chip.
    faster = dataclasses.replace(config, clock_hz=config.clock_hz * 1.1)
    assert chip_key(faster) == chip_key(config)
    assert config_key(faster) != plain
    cooler = dataclasses.replace(
        config, temperature_k=config.temperature_k - 20.0,
    )
    assert chip_key(cooler) != chip_key(config)
    wider = dataclasses.replace(config, n_cores=config.n_cores * 2)
    assert chip_key(wider) != chip_key(config)


SYSTEM_CONFIGS = st.builds(
    SystemConfig,
    name=st.text(max_size=12),  # quotes, backslashes, non-ASCII
    node_nm=st.sampled_from(SUPPORTED_NODES_NM),
    clock_hz=st.floats(min_value=1e8, max_value=5e9),
    n_cores=st.integers(min_value=1, max_value=64),
    core=CORE_CONFIGS,
    temperature_k=st.sampled_from([300.0, 360.0]),
    device_type=st.sampled_from(DeviceType),
    l2=st.none() | st.just(SharedCacheConfig()),
    l3=st.none() | st.just(SharedCacheConfig(name="L3", banks=8)),
    noc=st.builds(
        NocConfig,
        topology=st.sampled_from(NocTopology),
        link_signaling=st.sampled_from(LinkSignaling),
    ),
    niu=st.none() | st.just(NiuConfig()),
    pcie=st.none() | st.just(PcieConfig()),
    vdd_v=st.none() | st.floats(min_value=0.6, max_value=1.3),
    # An int in a float field stays an int in the key.
    io_peak_power_w=st.just(0) | st.floats(min_value=0.0, max_value=50.0),
)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    config=SYSTEM_CONFIGS,
    workload=st.none() | st.sampled_from(sorted(SPLASH2_PROFILES)),
)
def test_config_key_follows_the_formula(config, workload):
    profile = SPLASH2_PROFILES[workload] if workload else None
    assert config_key(config, profile) == reference_key(config, profile)
    # A replaced point shares its sub-configs and their kept text.
    point = dataclasses.replace(config, clock_hz=config.clock_hz * 2)
    assert config_key(point, profile) == reference_key(point, profile)


@pytest.mark.skipif(not batch.have_numpy(), reason="numpy not installed")
def test_numpy_sweep_axis_keys_follow_the_formula():
    np = batch.get_numpy()
    spec = SweepSpec.from_axes(presets.niagara1(), {
        "clock_hz": list(np.linspace(1.0e9, 1.4e9, 3)),
        "temperature_k": list(np.array([340.0, 360.0])),
    })
    for point in spec.iter_points():
        assert type(point.config.clock_hz) is np.float64
        assert config_key(point.config) == reference_key(point.config)

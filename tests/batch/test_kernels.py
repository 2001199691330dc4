"""Parity tests: the batch kernel against its scalar twin."""

import math

import pytest

from repro.batch import kernels
from repro.batch._numpy import get_numpy, have_numpy
from repro.tech import Technology

needs_numpy = pytest.mark.skipif(
    not have_numpy(), reason="numpy not installed"
)

TECH = Technology(node_nm=65, temperature_k=360.0)


class TestLeakage:
    def test_temperature_scale_matches_device_model(self):
        device = TECH.device
        hot = device.at_temperature(device.temperature_k + 35.0)
        scale = kernels.leakage_temperature_scale(
            hot.temperature_k, device.temperature_k
        )
        assert scale == pytest.approx(math.e, rel=1e-12)
        assert hot.i_off == pytest.approx(
            device.i_off * scale, rel=1e-12
        )


@needs_numpy
class TestArrayBroadcast:
    def test_temperature_scale_vectorizes(self):
        np = get_numpy()
        temps_k = np.array([325.0, 360.0, 395.0])
        out = kernels.leakage_temperature_scale(temps_k, 360.0)
        for t_k, value in zip(temps_k, out):
            assert value == kernels.leakage_temperature_scale(
                float(t_k), 360.0
            )

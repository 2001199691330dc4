"""Vectorized kernels (structure-of-arrays form).

:func:`leakage_temperature_scale` mirrors the leakage-temperature curve
of :class:`repro.tech.device.DeviceParameters` but accepts numpy arrays
anywhere it accepts floats, evaluating a whole temperature axis per
call. The group compiler (:mod:`repro.batch.compile`) uses it to
evaluate chip leakage over a temperature axis from two probed
endpoints; the parity suite asserts it agrees with the scalar model.
"""

from __future__ import annotations

import math
from typing import Any, Union

from repro.batch._numpy import get_numpy
from repro.tech.device import (
    _SUBTHRESHOLD_TEMPERATURE_EFOLD_K as TEMPERATURE_EFOLD_K,
)

#: A float or a numpy array of floats (numpy is optional, hence ``Any``).
ArrayLike = Union[float, Any]


def _exp(x: ArrayLike) -> ArrayLike:
    np = get_numpy()
    if np is not None and isinstance(x, np.ndarray):
        return np.exp(x)
    return math.exp(x)


def leakage_temperature_scale(
    temperature_k: ArrayLike,
    reference_temperature_k: ArrayLike,
) -> ArrayLike:  # repro: dim[return: 1]
    """Subthreshold leakage multiplier ``exp(dT / 35 K)`` vs the reference.

    Mirrors :meth:`repro.tech.device.DeviceParameters.at_temperature`:
    ``i_off`` grows e-fold every 35 K; gate leakage is temperature
    independent. Chip leakage at a fixed structure is therefore exactly
    ``G + S * leakage_temperature_scale(T, T_ref)`` — the affine-in-
    ``exp`` form the group compiler fits from two probed temperatures.
    """
    delta = temperature_k - reference_temperature_k
    return _exp(delta / TEMPERATURE_EFOLD_K)

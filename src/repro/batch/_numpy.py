"""Guarded, lazy numpy import for the batch backend.

numpy is an *optional* extra (``pip install mcpat-repro[fast]``). Every
module in :mod:`repro.batch` goes through :func:`get_numpy` /
:func:`have_numpy` instead of importing numpy directly, so the package
imports cleanly — and the backend resolver falls back to the scalar
path — on installations without it. The import happens on the first
:func:`get_numpy` call, not when :mod:`repro.batch` is imported, so the
scalar path never pays for it. Tests monkeypatch :data:`_np` to
``None`` to exercise exactly that fallback on machines that do have
numpy installed.
"""

from __future__ import annotations

import functools
from typing import Any

_UNLOADED: Any = object()

#: An override of what :func:`get_numpy` returns (tests set ``None``);
#: :data:`_UNLOADED` defers to the memoized import.
_np: Any = _UNLOADED


@functools.cache
def _import_numpy() -> Any:
    try:
        import numpy
    except ImportError:  # pragma: no cover
        return None
    return numpy


def get_numpy() -> Any:
    """The numpy module, or ``None`` when the extra is not installed."""
    if _np is _UNLOADED:
        return _import_numpy()
    return _np


def have_numpy() -> bool:
    """Whether the vectorized backend can run in this process."""
    return get_numpy() is not None

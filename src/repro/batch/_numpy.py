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

from typing import Any

_UNLOADED: Any = object()

#: The numpy module, ``None`` without the extra, or :data:`_UNLOADED`
#: until the first :func:`get_numpy` call.
_np: Any = _UNLOADED


def get_numpy() -> Any:
    """The numpy module, or ``None`` when the extra is not installed."""
    global _np
    if _np is _UNLOADED:
        try:
            import numpy
        except ImportError:  # pragma: no cover
            numpy = None
        _np = numpy
    return _np


def have_numpy() -> bool:
    """Whether the vectorized backend can run in this process."""
    return get_numpy() is not None

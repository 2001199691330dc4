"""Structure-of-arrays batch evaluation backend.

McPAT's headline workload is design-space exploration: the same chip
evaluated at hundreds of operating points. This package splits
model *construction* from numeric *evaluation* so a sweep is array math
instead of a loop of full evaluations:

* :mod:`repro.batch.terms` — piecewise-affine frequency responses, the
  compiled numeric form (scalar and numpy evaluation).
* :mod:`repro.batch.compile` — probes the exact scalar model for one
  built chip over a :class:`Domain` (a clock interval), fits the
  closed forms, and validates them with held-out probes
  (:class:`BatchFallback` on a residual or a non-finite probe).
* :mod:`repro.batch.backend` — backend resolution (``scalar`` |
  ``numpy`` | ``auto``) and group orchestration for
  :func:`repro.engine.evaluate_many`. One compiled fit is kept per
  built chip, under the :func:`~repro.config.loader.chip_key` its
  parts are memoized under (every field but ``clock_hz``); a group
  inside its domain costs no probe, and one reaching outside widens it
  by a compile over the union.

The scalar path remains the bit-identical reference; the numpy backend
promises agreement within 1e-9 relative (enforced by the parity suite
over all four validation presets) and falls back to scalar — never
approximates silently — when a group violates its closed-form
assumptions. numpy itself is an optional extra (``pip install
mcpat-repro[fast]``); without it every request resolves to scalar.
"""

from repro.batch._numpy import get_numpy, have_numpy
from repro.batch.backend import (
    BACKENDS,
    counters,
    evaluate_batch,
    reset_counters,
    resolve_backend,
)
from repro.batch.compile import (
    BatchFallback,
    CompiledGroup,
    Domain,
    compile_group,
)
from repro.batch.terms import PiecewiseAffine
from repro.engine.record import METRICS

__all__ = [
    "BACKENDS",
    "BatchFallback",
    "CompiledGroup",
    "Domain",
    "METRICS",
    "PiecewiseAffine",
    "compile_group",
    "counters",
    "evaluate_batch",
    "get_numpy",
    "have_numpy",
    "reset_counters",
    "resolve_backend",
]

"""Piecewise-affine frequency responses — the compiled numeric form.

Every TDP metric of one built chip is piecewise-affine in the
clock: dynamic power is ``rate * energy * f`` per component, and the only
kink is the shared-cache bank-saturation frequency where the per-cycle
access ceiling switches from bank-limited-constant to clock-limited (see
:meth:`repro.memsys.shared_cache.SharedCache.max_accesses_per_cycle`).
A :class:`PiecewiseAffine` stores one ``(anchor, value, slope)`` segment
per breakpoint interval; :meth:`value` evaluates one point in pure
Python and :meth:`values` evaluates a whole frequency axis at once with
numpy (``searchsorted`` + one fused multiply-add over the array).

The fit is *probed*, not re-derived: :mod:`repro.batch.compile` samples
the exact scalar model at the segment endpoints and validates the
midpoint of every segment, so a compiled response never silently
disagrees with the scalar reference beyond float roundoff.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Sequence


@dataclass(frozen=True)
class PiecewiseAffine:
    """One metric's response over a closed frequency interval.

    Attributes:
        breakpoints: Interior segment boundaries, strictly ascending (Hz).
            ``len(breakpoints) + 1`` segments cover the fitted interval.
        anchors: Per-segment reference abscissa (its left endpoint) (Hz).
        values: Metric value at each segment's anchor.
        slopes: Per-segment d(metric)/d(frequency).
    """

    breakpoints: tuple[float, ...]
    anchors: tuple[float, ...]
    values: tuple[float, ...]
    slopes: tuple[float, ...]

    def __post_init__(self) -> None:
        n_segments = len(self.breakpoints) + 1
        if not (len(self.anchors) == len(self.values)
                == len(self.slopes) == n_segments):
            raise ValueError(
                f"expected {n_segments} segment(s), got "
                f"{len(self.anchors)} anchors / {len(self.values)} values "
                f"/ {len(self.slopes)} slopes"
            )
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints,
                                          self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly ascending")

    @classmethod
    def constant(cls, value: float, anchor: float = 0.0) -> "PiecewiseAffine":
        """A flat response (single segment, zero slope)."""
        return cls(
            breakpoints=(), anchors=(anchor,), values=(value,),
            slopes=(0.0,),
        )

    def value(
        self, frequency_hz: float
    ) -> float:  # repro: dim[frequency_hz: hz]
        """Evaluate one frequency on the scalar (pure Python) path."""
        i = bisect.bisect_right(self.breakpoints, frequency_hz)
        return self.values[i] + self.slopes[i] * (
            frequency_hz - self.anchors[i]
        )

    def values_array(self, frequencies_hz: Sequence[float], np: Any) -> Any:
        """Evaluate a whole frequency axis at once (numpy array in/out)."""
        f = np.asarray(frequencies_hz, dtype=float)
        idx = np.searchsorted(
            np.asarray(self.breakpoints, dtype=float), f, side="right",
        )
        anchors = np.asarray(self.anchors, dtype=float)[idx]
        base = np.asarray(self.values, dtype=float)[idx]
        slopes = np.asarray(self.slopes, dtype=float)[idx]
        return base + slopes * (f - anchors)

"""Compile one built chip into closed-form clock responses.

The batch backend partitions a grid into *groups* of points sharing one
built chip: every config field but ``clock_hz``, the
:func:`~repro.config.loader.chip_key` that
:attr:`repro.chip.processor.Processor.parts` is memoized under. Within
a group, model construction — array organization search, repeater
sizing, floorplanning — is identical for every point, and every TDP
metric is exactly piecewise-affine in the clock: each dynamic-power
term is ``rate * energy * f``, and the only kink is a shared cache's
bank-saturation frequency ``1 / max(access_time, cycle_time)``, where
the access ceiling switches from clock-limited to bank-limited.
Temperature is not an axis: it moves subthreshold leakage, and through
leakage the organization the array search picks, so a new temperature
is a new built chip and a group of its own, as on the scalar path.

Rather than re-deriving the coefficients from the component models
(fragile against model evolution), :func:`compile_group` *probes* the
exact scalar model over a :class:`Domain`, a closed clock interval: it
samples the TDP metrics of ``Processor(config)`` at each segment's
endpoints (every probe shares the chip's parts with the scalar path),
then **validates** the fit at the midpoint of every segment. A
non-finite probe, or any residual above float-roundoff scale, raises
:class:`BatchFallback` and the caller re-runs the group through the
scalar path, so the vectorized backend can be wrong about the model only
by *falling back*, never by answering. The result answers for its
domain only: :meth:`CompiledGroup.evaluate` refuses a clock outside it
rather than extrapolate, and the backend grows a chip's domain by
compiling again over the union.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Mapping, NamedTuple, Sequence

from repro import obs
from repro.batch.terms import PiecewiseAffine
from repro.chip.processor import Processor
from repro.config.schema import SystemConfig
from repro.engine.record import METRICS, tdp_metrics

#: Relative residual above which a fitted response is rejected. The fit
#: reconstructs exact affine arithmetic, so genuine residuals are a few
#: ulp (~1e-15); anything past this tolerance means the model has a
#: dependence the compiler does not know about.
_FIT_REL_TOL = 1e-11

#: Relative spacing below which two frequencies are one probe point.
_MIN_SEGMENT_REL_SPAN = 1e-9


class BatchFallback(Exception):
    """A group cannot be compiled exactly; evaluate it on the scalar path.

    Attributes:
        reason: Which check failed.
        n_probes: Scalar probes the failed compile had spent (set by
            :func:`compile_group`), for the amortization counters.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason
        self.n_probes = 0


def _check(label: str, predicted: float, actual: float) -> None:
    # Written so NaN fails: ``nan > tol`` is False, ``nan <= tol`` too.
    residual = predicted - actual
    scale = max(abs(actual), abs(predicted), 1e-30)
    if not (math.isfinite(residual)
            and abs(residual) <= _FIT_REL_TOL * scale):
        raise BatchFallback(
            f"{label}: fitted value {predicted!r} disagrees with the "
            f"scalar model's {actual!r} beyond {_FIT_REL_TOL:g} relative"
        )


def _probe(
    config: SystemConfig, f: float, probe_count: list[int],
) -> dict[str, float]:
    """One scalar sample of every metric at clock ``f``; a non-finite
    one falls back."""
    probe_count[0] += 1
    sample = tdp_metrics(Processor(dataclasses.replace(config, clock_hz=f)))
    for name, value in sample.items():
        if not math.isfinite(value):
            raise BatchFallback(
                f"{name} probe at {f:g} Hz is {value!r}, not finite"
            )
    return sample


class Domain(NamedTuple):
    """The clocks a compiled group answers for: a closed interval.

    Attributes:
        f_lo_hz: Lowest clock (Hz).
        f_hi_hz: Highest clock (Hz).
    """

    f_lo_hz: float
    f_hi_hz: float

    @classmethod
    def of(cls, clocks: Sequence[float]) -> "Domain":
        """The smallest interval holding ``clocks``."""
        return cls(min(clocks), max(clocks))

    def covers(self, other: "Domain") -> bool:
        """Whether ``other`` lies inside this interval."""
        return self.f_lo_hz <= other.f_lo_hz and other.f_hi_hz <= self.f_hi_hz

    def union(self, other: "Domain") -> "Domain":
        """The smallest interval covering both."""
        return Domain(min(self.f_lo_hz, other.f_lo_hz),
                      max(self.f_hi_hz, other.f_hi_hz))


@dataclass(frozen=True)
class CompiledGroup:
    """Closed-form TDP metrics of one built chip over a clock interval.

    Attributes:
        name: The group's chip label (every point shares it).
        responses: Metric name -> piecewise-affine clock response,
            valid on :attr:`domain`.
        n_probes: Scalar model samples spent compiling (for the
            amortization counters).
        domain: The clock interval the fit was validated over;
            :meth:`evaluate` answers for nothing else.
    """

    name: str
    responses: Mapping[str, PiecewiseAffine]
    n_probes: int
    domain: Domain

    def evaluate(self, clocks: Sequence[float], np: Any) -> dict[str, Any]:
        """Metric arrays for many clocks (Hz) at once.

        Raises:
            ValueError: If a clock lies outside :attr:`domain` — the fit
                is never extrapolated.
        """
        f = np.asarray(clocks, dtype=float)
        if not np.all((f >= self.domain.f_lo_hz)
                      & (f <= self.domain.f_hi_hz)):
            raise ValueError(
                f"{self.name}: a clock lies outside the compiled "
                f"domain {self.domain}"
            )
        return {
            name: response.values_array(f, np)
            for name, response in self.responses.items()
        }


def _frequency_boundaries(
    processor: Processor, f_lo: float, f_hi: float,
) -> list[float]:
    """Segment boundaries: the span endpoints plus interior cache kinks."""
    boundaries = [f_lo]
    kinks: set[float] = set()
    for cache in (processor.parts.l2, processor.parts.l3):
        if cache is None:
            continue
        occupancy = max(cache.cache.access_time, cache.cache.cycle_time)
        if occupancy > 0:
            kinks.add(1.0 / occupancy)
    for kink in sorted(kinks):
        if (kink > boundaries[-1] * (1.0 + _MIN_SEGMENT_REL_SPAN)
                and kink < f_hi * (1.0 - _MIN_SEGMENT_REL_SPAN)):
            boundaries.append(kink)
    boundaries.append(f_hi)
    return boundaries


def _fit_frequency_responses(
    config: SystemConfig, f_lo: float, f_hi: float, probe_count: list[int],
) -> dict[str, PiecewiseAffine]:
    """Fit every metric over ``[f_lo, f_hi]``, validating midpoints."""
    probes: dict[float, dict[str, float]] = {}

    def probe_at(f: float) -> dict[str, float]:
        if f not in probes:
            probes[f] = _probe(config, f, probe_count)
        return probes[f]

    if f_hi <= f_lo * (1.0 + _MIN_SEGMENT_REL_SPAN):
        sample = probe_at(f_lo)
        return {
            name: PiecewiseAffine.constant(sample[name], anchor=f_lo)
            for name in METRICS
        }

    boundaries = _frequency_boundaries(Processor(config), f_lo, f_hi)
    breakpoints = tuple(boundaries[1:-1])
    anchors: dict[str, list[float]] = {name: [] for name in METRICS}
    values: dict[str, list[float]] = {name: [] for name in METRICS}
    slopes: dict[str, list[float]] = {name: [] for name in METRICS}
    for lo, hi in zip(boundaries, boundaries[1:]):
        lo_sample, hi_sample = probe_at(lo), probe_at(hi)
        mid = 0.5 * (lo + hi)
        mid_sample = probe_at(mid)
        for name in METRICS:
            slope = (hi_sample[name] - lo_sample[name]) / (hi - lo)
            _check(
                f"{name} at {mid:g} Hz",
                lo_sample[name] + slope * (mid - lo),
                mid_sample[name],
            )
            anchors[name].append(lo)
            values[name].append(lo_sample[name])
            slopes[name].append(slope)
    return {
        name: PiecewiseAffine(
            breakpoints=breakpoints,
            anchors=tuple(anchors[name]),
            values=tuple(values[name]),
            slopes=tuple(slopes[name]),
        )
        for name in METRICS
    }


def compile_group(
    config: SystemConfig, f_lo_hz: float, f_hi_hz: float,
) -> CompiledGroup:
    """Probe and fit one built chip over the clocks ``[f_lo_hz, f_hi_hz]``.

    Args:
        config: A config of the chip (its ``clock_hz`` is ignored in
            favor of the interval); every probe runs at its own
            temperature.
        f_lo_hz: Lowest clock of the closed interval (Hz).
        f_hi_hz: Highest clock of the closed interval (Hz).

    Raises:
        BatchFallback: When a probe is not finite or a validation probe
            disagrees with the fitted closed form — the caller evaluates
            the group through the scalar path instead. Its ``n_probes``
            counts the probes spent before the failure.
    """
    with obs.span(
        "batch.compile_group", category="batch", chip=config.name,
    ):
        probe_count = [0]
        try:
            responses = _fit_frequency_responses(
                config, f_lo_hz, f_hi_hz, probe_count,
            )
        except BatchFallback as fallback:
            fallback.n_probes = probe_count[0]
            raise
        return CompiledGroup(
            name=config.name,
            responses=responses,
            n_probes=probe_count[0],
            domain=Domain(f_lo_hz, f_hi_hz),
        )

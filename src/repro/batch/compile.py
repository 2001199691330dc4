"""Compile one chip structure into closed-form frequency/temperature terms.

The batch backend partitions a grid into *groups* of points sharing one
chip structure (everything but ``clock_hz`` and ``temperature_k``).
Within a group, model construction — array organization search, repeater
sizing, floorplanning — is identical for every point, and the TDP
metrics depend on the varying parameters in closed form:

* **Frequency**: every dynamic-power term is ``rate * energy * f``; the
  only kink is a shared cache's bank-saturation frequency
  ``1 / max(access_time, cycle_time)`` where the access ceiling switches
  from clock-limited to bank-limited. Each metric is therefore exactly
  piecewise-affine in ``f`` with known breakpoints.
* **Temperature**: only subthreshold leakage moves, e-folding every
  35 K (:func:`repro.tech.device.leakage_temperature_scale`), so chip
  leakage is exactly ``G + S * exp(dT / 35 K)`` and every other metric
  is temperature-invariant.

Rather than re-deriving those coefficients from the component models
(fragile against model evolution), :func:`compile_group` *probes* the
exact scalar model over a :class:`Domain` — a closed clock interval
times a set of temperatures: it samples the TDP metrics of
``Processor(config)`` at each segment's endpoints (every probe of one
temperature shares the chip's parts with the scalar path), then
**validates** every closed-form assumption against held-out probes — the
midpoint of every frequency segment, a dynamic/area probe per extra
temperature, and the median temperature of an exp fit. A non-finite
probe, or any residual above float-roundoff scale, raises
:class:`BatchFallback` and the caller re-runs the group through the
scalar path, so the vectorized backend can be wrong about the model only
by *falling back*, never by answering. The result answers for its
domain only: :meth:`CompiledGroup.evaluate` refuses a point outside it
rather than extrapolate, and the backend grows a structure's domain by
compiling again over the union.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from repro import obs
from repro.batch.terms import PiecewiseAffine
from repro.chip.processor import Processor
from repro.config.schema import SystemConfig
from repro.engine.record import METRICS, tdp_metrics
from repro.tech.device import (
    LEAKAGE_REFERENCE_TEMPERATURE_K,
    leakage_temperature_scale,
)

#: Metrics that shift with temperature (through subthreshold leakage).
_LEAKY_METRICS = frozenset({"tdp_w", "leakage_w", "core_leakage_w"})

#: Relative residual above which a fitted response is rejected. The fit
#: reconstructs exact affine arithmetic, so genuine residuals are a few
#: ulp (~1e-15); anything past this tolerance means the model has a
#: dependence the compiler does not know about.
_FIT_REL_TOL = 1e-11

#: Tolerance for metrics that must not move with temperature at all.
_T_INVARIANT_REL_TOL = 1e-12

#: Extra temperatures beyond which leakage is fitted as
#: ``G + S * exp(dT/35K)`` from two probes instead of probed per value.
_MAX_PROBED_TEMPERATURES = 3

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


def _check(
    label: str,
    predicted: float,
    actual: float,
    rel_tol: float,
) -> None:
    # Written so NaN fails: ``nan > tol`` is False, ``nan <= tol`` too.
    residual = predicted - actual
    scale = max(abs(actual), abs(predicted), 1e-30)
    if not (math.isfinite(residual) and abs(residual) <= rel_tol * scale):
        raise BatchFallback(
            f"{label}: fitted value {predicted!r} disagrees with the "
            f"scalar model's {actual!r} beyond {rel_tol:g} relative"
        )


def _probe(
    config: SystemConfig, f: float, t: float, probe_count: list[int],
) -> dict[str, float]:
    """One scalar sample of every metric at ``(f, t)``; a non-finite
    one falls back."""
    probe_count[0] += 1
    sample = tdp_metrics(Processor(
        dataclasses.replace(config, clock_hz=f, temperature_k=t),
    ))
    for name, value in sample.items():
        if not math.isfinite(value):
            raise BatchFallback(
                f"{name} probe at {f:g} Hz is {value!r}, not finite"
            )
    return sample


class Domain(NamedTuple):
    """The operating points a compiled group answers for.

    Attributes:
        f_lo_hz: Lowest clock of the closed interval (Hz).
        f_hi_hz: Highest clock of the closed interval (Hz).
        temperatures_k: The temperatures, each one exactly (K).
    """

    f_lo_hz: float
    f_hi_hz: float
    temperatures_k: frozenset[float]

    @classmethod
    def of(cls, points: Iterable[tuple[float, float]]) -> "Domain":
        """The smallest domain holding ``(clock_hz, temperature_k)`` points."""
        frequencies, temperatures = zip(*points)
        return cls(min(frequencies), max(frequencies),
                   frozenset(temperatures))

    def covers(self, other: "Domain") -> bool:
        """Whether every point of ``other`` lies in this domain."""
        return (self.f_lo_hz <= other.f_lo_hz
                and other.f_hi_hz <= self.f_hi_hz
                and other.temperatures_k <= self.temperatures_k)

    def union(self, other: "Domain") -> "Domain":
        """The smallest domain covering both."""
        return Domain(
            min(self.f_lo_hz, other.f_lo_hz),
            max(self.f_hi_hz, other.f_hi_hz),
            self.temperatures_k | other.temperatures_k,
        )


@dataclass(frozen=True)
class CompiledGroup:
    """Closed-form TDP metrics of one chip structure over one domain.

    Attributes:
        name: The group's chip label (every point shares it).
        t_ref_k: Temperature the frequency responses were fitted at.
        responses: Metric name -> piecewise-affine frequency response,
            valid on the domain's clock interval at ``t_ref_k``.
        leak_deltas_w: Distinct temperature -> (chip leakage delta,
            core leakage delta) relative to ``t_ref_k``. Applies to
            ``leakage_w``/``core_leakage_w`` and, because dynamic power
            is temperature-invariant, equally to ``tdp_w``.
        n_probes: Scalar model samples spent compiling (for the
            amortization counters).
        domain: The clock interval and temperatures the fit was
            validated over; :meth:`evaluate` answers for nothing else.
    """

    name: str
    t_ref_k: float
    responses: Mapping[str, PiecewiseAffine]
    leak_deltas_w: Mapping[float, tuple[float, float]]
    n_probes: int
    domain: Domain

    def evaluate(
        self,
        points: Sequence[tuple[float, float]],
        np: Any,
    ) -> dict[str, Any]:
        """Metric arrays for ``(clock_hz, temperature_k)`` points at once.

        Raises:
            ValueError: If a point lies outside :attr:`domain` — the fit
                is never extrapolated.
        """
        f = np.asarray([p[0] for p in points], dtype=float)
        temps = sorted(self.leak_deltas_w)
        t_index = {t: i for i, t in enumerate(temps)}
        positions = [t_index.get(p[1]) for p in points]
        if None in positions or not np.all(
            (f >= self.domain.f_lo_hz) & (f <= self.domain.f_hi_hz)
        ):
            raise ValueError(
                f"{self.name}: a point lies outside the compiled "
                f"domain {self.domain}"
            )
        idx = np.asarray(positions, dtype=int)
        chip_delta = np.asarray(
            [self.leak_deltas_w[t][0] for t in temps], dtype=float,
        )[idx]
        core_delta = np.asarray(
            [self.leak_deltas_w[t][1] for t in temps], dtype=float,
        )[idx]

        out = {
            name: response.values_array(f, np)
            for name, response in self.responses.items()
        }
        out["tdp_w"] = out["tdp_w"] + chip_delta
        out["leakage_w"] = out["leakage_w"] + chip_delta
        out["core_leakage_w"] = out["core_leakage_w"] + core_delta
        return out


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
    config: SystemConfig,
    frequencies: Sequence[float],
    probes: dict[float, dict[str, float]],
    probe_count: list[int],
) -> dict[str, PiecewiseAffine]:
    """Fit every metric over the frequency span at ``config``'s
    temperature, validating midpoints."""
    f_lo, f_hi = frequencies[0], frequencies[-1]

    def probe_at(f: float) -> dict[str, float]:
        if f not in probes:
            probes[f] = _probe(config, f, config.temperature_k, probe_count)
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
                _FIT_REL_TOL,
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


def _leak_deltas(
    config: SystemConfig,
    temperatures: Sequence[float],
    f_probe: float,
    ref_sample: dict[str, float],
    probe_count: list[int],
) -> dict[float, tuple[float, float]]:
    """(chip, core) leakage offsets vs the reference temperature.

    Up to :data:`_MAX_PROBED_TEMPERATURES` extra temperatures are probed
    exactly; longer axes are fitted with the ``G + S * exp(dT/35K)``
    leakage curve from the endpoint probes and validated at the median.
    Every probed temperature also validates that the remaining metrics
    did not move (a temperature-sensitive organization search would).
    """
    t_ref = temperatures[0]
    deltas: dict[float, tuple[float, float]] = {t_ref: (0.0, 0.0)}
    others = list(temperatures[1:])
    if not others:
        return deltas

    def probe_temperature(t: float) -> tuple[float, float]:
        sample = _probe(config, f_probe, t, probe_count)
        for name in METRICS:
            if name in _LEAKY_METRICS:
                continue
            _check(
                f"{name} at {t:g} K (expected temperature-invariant)",
                ref_sample[name], sample[name], _T_INVARIANT_REL_TOL,
            )
        chip = sample["leakage_w"] - ref_sample["leakage_w"]
        core = sample["core_leakage_w"] - ref_sample["core_leakage_w"]
        # tdp = dynamic + leakage, so its shift must equal the chip
        # leakage shift; a disagreement means dynamic moved with T.
        _check(
            f"tdp_w at {t:g} K (expected to shift with leakage only)",
            ref_sample["tdp_w"] + chip, sample["tdp_w"], _FIT_REL_TOL,
        )
        return chip, core

    if len(others) <= _MAX_PROBED_TEMPERATURES:
        for t in others:
            deltas[t] = probe_temperature(t)
        return deltas

    # Long axis: fit S from the endpoints of exp(dT/35K) space, validate
    # at the median, and evaluate the whole tail on the curve.
    t_hi = others[-1]
    t_med = others[len(others) // 2]
    scale_ref = leakage_temperature_scale(
        t_ref, LEAKAGE_REFERENCE_TEMPERATURE_K,
    )
    scale_hi = leakage_temperature_scale(
        t_hi, LEAKAGE_REFERENCE_TEMPERATURE_K,
    )
    if scale_hi <= scale_ref:
        raise BatchFallback(
            f"temperature axis is not ascending past {t_ref:g} K"
        )
    chip_hi, core_hi = probe_temperature(t_hi)
    chip_slope = chip_hi / (scale_hi - scale_ref)
    core_slope = core_hi / (scale_hi - scale_ref)

    chip_med, core_med = probe_temperature(t_med)
    scale_med = leakage_temperature_scale(
        t_med, LEAKAGE_REFERENCE_TEMPERATURE_K,
    )
    _check(
        f"chip leakage exp-fit at {t_med:g} K",
        chip_slope * (scale_med - scale_ref), chip_med, _FIT_REL_TOL,
    )
    _check(
        f"core leakage exp-fit at {t_med:g} K",
        core_slope * (scale_med - scale_ref), core_med, _FIT_REL_TOL,
    )
    deltas[t_hi] = (chip_hi, core_hi)
    deltas[t_med] = (chip_med, core_med)
    for t in others:
        if t in deltas:
            continue
        shift = (
            leakage_temperature_scale(t, LEAKAGE_REFERENCE_TEMPERATURE_K)
            - scale_ref
        )
        deltas[t] = (chip_slope * shift, core_slope * shift)
    return deltas


def compile_group(
    config: SystemConfig,
    frequencies: Sequence[float],
    temperatures: Sequence[float],
) -> CompiledGroup:
    """Probe and fit one structure over a clock interval and temperatures.

    Args:
        config: A representative config of the structure (its
            ``clock_hz`` and ``temperature_k`` are ignored in favor of
            the axes).
        frequencies: Ascending clock values (Hz); the fit covers the
            closed interval from the first to the last.
        temperatures: Distinct ascending temperatures (K).

    Raises:
        BatchFallback: When a probe is not finite or a validation probe
            disagrees with the fitted closed form — the caller evaluates
            the group through the scalar path instead. Its ``n_probes``
            counts the probes spent before the failure.
    """
    if not frequencies or not temperatures:
        raise BatchFallback("a group needs at least one (f, T) point")
    f_lo = frequencies[0]
    t_ref = temperatures[0]
    with obs.span(
        "batch.compile_group", category="batch", chip=config.name,
        frequencies=len(frequencies), temperatures=len(temperatures),
    ):
        probes: dict[float, dict[str, float]] = {}
        probe_count = [0]
        try:
            responses = _fit_frequency_responses(
                dataclasses.replace(config, temperature_k=t_ref),
                frequencies, probes, probe_count,
            )
            leak_deltas = _leak_deltas(
                config, temperatures, f_lo, probes[f_lo], probe_count,
            )
        except BatchFallback as fallback:
            fallback.n_probes = probe_count[0]
            raise
        return CompiledGroup(
            name=config.name,
            t_ref_k=t_ref,
            responses=responses,
            leak_deltas_w=leak_deltas,
            n_probes=probe_count[0],
            domain=Domain(
                frequencies[0], frequencies[-1], frozenset(temperatures),
            ),
        )

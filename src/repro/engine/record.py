"""The unit of work the batch engine computes: one config's metrics.

An :class:`EvalRecord` is the flattened, serializable summary of one
:class:`~repro.chip.processor.Processor` evaluation — chip-level area and
power, the per-core breakdown the scaling studies plot, and (when a
workload is supplied) the runtime metrics from the analytical performance
substrate. Records are plain data: picklable for the worker pool and
JSON-round-trippable for the on-disk cache log, from which sweeps resume.

This module owns the record's TDP metric set: :data:`METRICS` names it
and :func:`tdp_metrics` extracts it from a processor, for the scalar
path here and for the batch backend's probes and records
(:mod:`repro.batch`). Both evaluate ``Processor(config)`` at the
config's own clock; the chip's parts are built once per structure and
temperature (:attr:`~repro.chip.processor.Processor.parts`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any

from repro.config.schema import SystemConfig
from repro.perf.workload import Workload

if TYPE_CHECKING:  # the chip package is imported lazily at evaluation
    from repro.chip.processor import Processor

#: The TDP metrics of a record, in :class:`EvalRecord` field order (the
#: batch backend passes them positionally after ``name`` and ``key``).
METRICS = (
    "area_mm2",
    "tdp_w",
    "peak_dynamic_w",
    "leakage_w",
    "core_area_mm2",
    "core_peak_dynamic_w",
    "core_leakage_w",
)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def tdp_metrics(processor: "Processor") -> dict[str, float]:
    """The :data:`METRICS` of one processor at its config's clock."""
    report = processor.report(None)
    core_result = processor.tdp_core_result
    return {
        "area_mm2": report.total_area * 1e6,
        "tdp_w": report.total_peak_power,
        "peak_dynamic_w": report.total_peak_dynamic_power,
        "leakage_w": report.total_leakage_power,
        "core_area_mm2": core_result.total_area * 1e6,
        "core_peak_dynamic_w": core_result.total_peak_dynamic_power,
        "core_leakage_w": core_result.total_leakage_power,
    }


@dataclass(frozen=True)
class EvalRecord:
    """Flattened result of evaluating one system configuration.

    Attributes:
        name: The config's chip label.
        key: Content-hash cache key of (config, workload).
        area_mm2: Die area.
        tdp_w: Peak dynamic + leakage power.
        peak_dynamic_w: Chip peak dynamic power.
        leakage_w: Chip leakage at the design temperature.
        core_area_mm2: One core's area.
        core_peak_dynamic_w: One core's peak dynamic power.
        core_leakage_w: One core's leakage.
        runtime_s: Workload run time (None without a workload).
        power_w: Workload runtime power (None without a workload).
        throughput_ips: Committed instructions/s (None without a workload).
        from_cache: True when this record was served from a cache
            rather than computed (excluded from equality).
        backend: Which evaluation path produced the numbers —
            ``"scalar"`` (the exact reference) or ``"numpy"`` (the
            vectorized batch backend, within 1e-9 relative). Provenance
            only: excluded from equality and from :meth:`to_dict`, so
            cache logs stay backend-agnostic.
    """

    name: str
    key: str
    area_mm2: float
    tdp_w: float
    peak_dynamic_w: float
    leakage_w: float
    core_area_mm2: float
    core_peak_dynamic_w: float
    core_leakage_w: float
    runtime_s: float | None = None
    power_w: float | None = None
    throughput_ips: float | None = None
    from_cache: bool = field(default=False, compare=False)
    backend: str = field(default="scalar", compare=False)

    @property
    def energy_j(self) -> float | None:
        """Workload energy (None without a workload)."""
        if self.runtime_s is None or self.power_w is None:
            return None
        return self.runtime_s * self.power_w

    @property
    def edp(self) -> float | None:
        """Energy-delay product (None without a workload)."""
        energy = self.energy_j
        if energy is None:
            return None
        return energy * self.runtime_s

    @property
    def ed2p(self) -> float | None:
        """Energy-delay^2 product (None without a workload)."""
        edp = self.edp
        if edp is None:
            return None
        return edp * self.runtime_s

    @property
    def leakage_fraction(self) -> float:
        """Leakage share of TDP."""
        return self.leakage_w / self.tdp_w if self.tdp_w else 0.0

    def to_dict(self) -> dict[str, Any]:
        """Serialize for the JSONL cache log and for served responses:
        every field but ``from_cache`` and ``backend``, in field order.
        The values are immutable, so nothing is copied."""
        return dict(zip(_SERIALIZED, _serialized_values(self)))

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EvalRecord":
        """Rebuild a record written by :meth:`to_dict`.

        Raises:
            TypeError: If ``data`` is not a dict or holds a field
                :meth:`to_dict` cannot have written: ``name`` and ``key``
                must be strings, each of :data:`METRICS` a number and
                each workload metric a number or None (a bool is not a
                number).
        """
        if not isinstance(data, dict):
            raise TypeError(
                f"a record must be a dict, got {type(data).__name__}"
            )
        for name in ("name", "key"):
            if not isinstance(data.get(name), str):
                raise TypeError(f"record {name} must be a string")
        for name in METRICS:
            if not _is_number(data.get(name)):
                raise TypeError(f"record {name} must be a number")
        for name in ("runtime_s", "power_w", "throughput_ips"):
            value = data.get(name)
            if value is not None and not _is_number(value):
                raise TypeError(f"record {name} must be a number or null")
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


#: The fields :meth:`EvalRecord.to_dict` writes, in field order.
_SERIALIZED = tuple(
    f.name for f in dataclasses.fields(EvalRecord)
    if f.name not in ("from_cache", "backend")
)
_serialized_values = attrgetter(*_SERIALIZED)


def evaluate_config(
    config: SystemConfig,
    workload: Workload | None = None,
    key: str = "",
) -> EvalRecord:
    """Model one chip and flatten the result into an :class:`EvalRecord`.

    This is the single evaluation the engine fans out; it runs inside
    worker processes and returns plain data. A new clock on a structure
    and temperature this process has built re-evaluates that chip's
    parts, bit-identical to building new ones, with or without a
    workload. The whole evaluation runs under an ``engine.evaluate``
    trace span (the root of the per-evaluation span tree).
    """
    from repro import obs
    from repro.chip import Processor

    with obs.span("engine.evaluate", category="engine", config=config.name):
        processor = Processor(config)
        metrics = tdp_metrics(processor)
        runtime_s = power_w = throughput_ips = None
        if workload is not None:
            from repro.perf import MulticoreSimulator

            with obs.span("engine.workload_sim", category="engine"):
                sim = MulticoreSimulator(processor).run(workload)
                runtime_s = sim.runtime_s
                throughput_ips = sim.throughput_ips
                power_w = processor.report(
                    sim.activity
                ).total_runtime_power

        return EvalRecord(
            name=config.name,
            key=key,
            **metrics,
            runtime_s=runtime_s,
            power_w=power_w,
            throughput_ips=throughput_ips,
        )

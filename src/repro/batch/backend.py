"""Backend selection and group orchestration for batch evaluation.

The engine asks this module two questions: which backend a request
resolves to (:func:`resolve_backend` — ``numpy`` silently degrades to
``scalar`` when the optional extra is missing), and what a batch of
pending ``(key, chip key, config)`` points evaluates to
(:func:`evaluate_batch`).

:func:`evaluate_batch` partitions the points by *chip key* — the
canonical texts of every config field but ``clock_hz``, the key the
built chip's parts are memoized under — and evaluates each group's
clock axis as numpy arrays over one compiled fit per chip
(:func:`repro.batch.compile.compile_group`). A chip's fit is kept with
the :class:`~repro.batch.compile.Domain` it was validated over, a clock
interval. A group inside that interval costs no probe, whatever its
size; a group reaching outside it compiles the chip once more over the
union of both intervals, so a new clock window on a known chip widens
the fit instead of re-probing per window. Points the backend cannot (or
should not) vectorize come back as leftovers for the exact scalar path:
a group of an unseen chip too small to amortize a compile, a group
whose validation probes fail, and anything with a workload attached
(runtime simulation is per-point by nature).

Module-level counters mirror the :mod:`repro.fastpath` idiom: they are
registered as a pull-side metrics collector, so ``GET /metrics`` and
``sweep --profile`` report how many points vectorized, how many fell
back, and what the compile amortization looked like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import fastpath, obs
from repro.batch._numpy import get_numpy, have_numpy
from repro.batch.compile import (
    BatchFallback,
    CompiledGroup,
    Domain,
    compile_group,
)
from repro.config.loader import ChipKey
from repro.config.schema import SystemConfig
from repro.engine.record import METRICS, EvalRecord
from repro.obs import metrics as _obs_metrics

#: Backend names accepted by ``resolve_backend`` (besides ``auto``).
BACKENDS = ("scalar", "numpy")

#: A group of a chip with no compiled fit must have this many points
#: before compiling beats the per-point loop: a compile is 3 probes (5
#: across a cache kink), and each probe costs what one scalar point on
#: the chip's parts costs. A chip with a fit grows it for any group.
_MIN_GROUP_POINTS = 4

Item = tuple[str, ChipKey, SystemConfig]

#: Domains remembered per chip as failing to compile, newest last.
_MAX_REMEMBERED_FAILURES = 8

_COUNTER_NAMES = (
    "groups_compiled",
    "groups_fallback",
    "points_vectorized",
    "points_fallback",
    "compile_probes",
    "numpy_unavailable",
)

_counters: dict[str, float] = {name: 0.0 for name in _COUNTER_NAMES}


@dataclass(frozen=True)
class _Chip:
    """What the backend knows about one built chip.

    Attributes:
        compiled: The fit over the widest domain validated so far, or
            None while no compile of the chip has succeeded.
        failed: Domains whose compile fell back, newest last; they are
            not probed again.
        made_by: The call that built this entry; that call alone adds
            ``spent`` to the counters.
        spent: ``(compiles that succeeded, scalar probes)`` building
            this entry cost, failed compiles' probes included.
    """

    compiled: CompiledGroup | None = None
    failed: tuple[Domain, ...] = ()
    made_by: object = None
    spent: tuple[int, int] = (0, 0)

    def knows(self, domain: Domain) -> bool:
        """Whether ``domain`` needs no compile: covered, or known to fail."""
        return (
            self.compiled is not None and self.compiled.domain.covers(domain)
        ) or domain in self.failed


#: One :class:`_Chip` per chip key, as ``chip.parts`` holds one built
#: chip per key, across chunks, sweeps and requests: a compile is exact
#: over its whole domain, so a later group inside it (a new clock
#: window, a repeated grid, the next chunk) costs zero probes. Honors
#: ``fastpath.disabled()`` like every other memo: there, each group
#: compiles its own domain.
_CHIPS = fastpath.Memo("batch.compiled_groups", max_entries=64)


def counters() -> dict[str, float]:
    """A snapshot of the backend counters (benchmarks, tests)."""
    return dict(_counters)


def reset_counters() -> None:
    """Zero the backend counters (cold-start state for benchmarks)."""
    for name in _COUNTER_NAMES:
        _counters[name] = 0.0


def _obs_collect() -> dict[str, float]:
    return {f"batch.{name}": value for name, value in _counters.items()}


_obs_metrics.register_collector("batch.backend", _obs_collect)


def resolve_backend(backend: str | None) -> str:
    """Normalize a backend request to ``"scalar"`` or ``"numpy"``.

    ``None`` means the caller did not opt in: the exact scalar path.
    ``"auto"`` picks numpy when available. An explicit ``"numpy"`` on an
    installation without the extra degrades to scalar (counted in
    ``batch.numpy_unavailable``) rather than failing — results are
    identical, only slower.

    Raises:
        ValueError: On an unknown backend name.
    """
    if backend is None or backend == "scalar":
        return "scalar"
    if backend == "auto":
        return "numpy" if have_numpy() else "scalar"
    if backend == "numpy":
        if have_numpy():
            return "numpy"
        _counters["numpy_unavailable"] += 1
        return "scalar"
    raise ValueError(
        f"unknown backend {backend!r} "
        f"(choices: auto, {', '.join(BACKENDS)})"
    )


def _grow(
    known: _Chip,
    config: SystemConfig,
    domain: Domain,
    n_points: int,
    call: object,
) -> _Chip:
    """``known`` extended to ``domain``: a compile over the union of its
    domain and ``domain`` or, if that falls back, over ``domain`` alone.

    Raises:
        BatchFallback: When the chip has no fit and the group is too
            small to be worth compiling one.
    """
    if known.compiled is None:
        if n_points < _MIN_GROUP_POINTS:
            raise BatchFallback(
                f"{n_points} point(s) do not amortize compiling a chip"
            )
        attempts = [domain]
    else:
        attempts = [known.compiled.domain.union(domain), domain]
    failed = known.failed
    probes = 0
    for attempt in dict.fromkeys(attempts):
        if attempt in failed:
            continue
        try:
            compiled = compile_group(
                config, attempt.f_lo_hz, attempt.f_hi_hz,
            )
        except BatchFallback as fallback:
            probes += fallback.n_probes
            failed = (failed + (attempt,))[-_MAX_REMEMBERED_FAILURES:]
            continue
        return _Chip(
            compiled, failed, call, (1, probes + compiled.n_probes),
        )
    return _Chip(known.compiled, failed, call, (0, probes))


def _compiled_for(
    config: SystemConfig,
    key: ChipKey,
    domain: Domain,
    n_points: int,
) -> CompiledGroup | None:
    """The chip's fit if it can answer ``domain``, else None."""
    call = object()
    try:
        known = _CHIPS.get_or_compute(
            key, lambda: _grow(_Chip(), config, domain, n_points, call),
        )
        if not known.knows(domain):
            grown = _grow(known, config, domain, n_points, call)
            _CHIPS.replace(key, known, grown)
            known = grown
    except BatchFallback:  # too few points to compile a new chip
        return None
    if known.made_by is call:
        _counters["groups_compiled"] += known.spent[0]
        _counters["compile_probes"] += known.spent[1]
    if known.compiled is not None and known.compiled.domain.covers(domain):
        return known.compiled
    _counters["groups_fallback"] += 1
    return None


def evaluate_batch(
    items: Sequence[Item],
) -> tuple[dict[str, EvalRecord], list[Item]]:
    """Vectorize what can be vectorized; return the rest as leftovers.

    Args:
        items: Pending ``(cache key, chip key, config)`` points
            (deduped and cache-missed by the engine, which took both
            keys from one :func:`~repro.engine.cache.config_keys`).

    Returns:
        ``(records, leftovers)``: records keyed by cache key for every
        vectorized point (``backend="numpy"``, ``from_cache=False``),
        and the items the scalar path must still evaluate.
    """
    np = get_numpy()
    if np is None or not items:
        return {}, list(items)

    groups: dict[ChipKey, list[Item]] = {}
    for item in items:
        groups.setdefault(item[1], []).append(item)

    records: dict[str, EvalRecord] = {}
    leftovers: list[Item] = []
    with obs.span(
        "batch.evaluate", category="batch",
        points=len(items), groups=len(groups),
    ):
        for key, group_items in groups.items():
            clocks = [config.clock_hz for _, _, config in group_items]
            compiled = _compiled_for(
                group_items[0][2], key, Domain.of(clocks), len(clocks),
            )
            if compiled is None:
                _counters["points_fallback"] += len(clocks)
                leftovers.extend(group_items)
                continue
            _counters["points_vectorized"] += len(clocks)
            arrays = compiled.evaluate(clocks, np)
            columns = [arrays[name].tolist() for name in METRICS]
            for (key, _, _), values in zip(group_items, zip(*columns)):
                records[key] = EvalRecord(
                    compiled.name, key, *values, backend="numpy",
                )
    return records, leftovers

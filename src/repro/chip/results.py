"""The hierarchical result tree every model level reports into.

A :class:`ComponentResult` node carries the *exclusive* costs of one
component plus its children, and its *inclusive* totals, which is what
the McPAT-style report prints. A node computes its totals once, at
construction, from its children's stored totals, so reading a total
never walks the subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Iterator


def _derived() -> Any:
    """A field that ``__post_init__`` sets from the others."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ComponentResult:
    """Power/area results of one component and its subtree.

    Attributes:
        name: Component label (e.g. ``"Instruction Fetch Unit"``).
        area: Silicon area excluding children (m^2).
        peak_dynamic_power: Dynamic power at peak (TDP) activity (W).
        runtime_dynamic_power: Dynamic power under supplied stats (W).
        leakage_power: Static power (subthreshold + gate) at the design
            point — the TDP contribution (W).
        runtime_leakage_power: Static power under the supplied stats,
            when power gating reduces it below ``leakage_power``;
            ``None`` means leakage is not gated (the default).
        children: Sub-component results.
        effective_runtime_leakage: This node's leakage under runtime
            conditions (W).
        total_area: Area including children (m^2).
        total_peak_dynamic_power: Peak dynamic power including
            children (W).
        total_runtime_dynamic_power: Runtime dynamic power including
            children (W).
        total_leakage_power: Leakage including children (W).
        total_runtime_leakage_power: Runtime leakage including children,
            power gating applied (W).
        total_peak_power: Peak dynamic + leakage, the TDP
            contribution (W).
        total_runtime_power: Runtime dynamic + runtime leakage (W).
    """

    name: str
    area: float = 0.0
    peak_dynamic_power: float = 0.0
    runtime_dynamic_power: float = 0.0
    leakage_power: float = 0.0
    children: tuple["ComponentResult", ...] = ()
    runtime_leakage_power: float | None = None

    effective_runtime_leakage: float = _derived()
    total_area: float = _derived()
    total_peak_dynamic_power: float = _derived()
    total_runtime_dynamic_power: float = _derived()
    total_leakage_power: float = _derived()
    total_runtime_leakage_power: float = _derived()
    total_peak_power: float = _derived()
    total_runtime_power: float = _derived()

    def __post_init__(self) -> None:
        if self.area < 0:
            raise ValueError("area must be non-negative")
        if self.peak_dynamic_power < 0:
            raise ValueError("peak_dynamic_power must be non-negative")
        if self.runtime_dynamic_power < 0:
            raise ValueError("runtime_dynamic_power must be non-negative")
        if self.leakage_power < 0:
            raise ValueError("leakage_power must be non-negative")
        runtime_leakage = self.runtime_leakage_power
        if runtime_leakage is None:
            runtime_leakage = self.leakage_power
        elif runtime_leakage < 0:
            raise ValueError("runtime_leakage_power must be non-negative")
        # Each total is this node's metric plus its children's totals
        # added left to right from the int 0 (which turns a leaf's -0.0
        # into 0.0): builtin sum() through Python 3.11, which since 3.12
        # compensates float rounding and so differs in the last bits.
        area = peak = runtime = leakage = total_runtime_leakage = 0
        for child in self.children:
            area += child.total_area
            peak += child.total_peak_dynamic_power
            runtime += child.total_runtime_dynamic_power
            leakage += child.total_leakage_power
            total_runtime_leakage += child.total_runtime_leakage_power
        area = self.area + area
        peak = self.peak_dynamic_power + peak
        runtime = self.runtime_dynamic_power + runtime
        leakage = self.leakage_power + leakage
        total_runtime_leakage = runtime_leakage + total_runtime_leakage
        # A frozen dataclass: write the instance dict, as cached_property
        # does, in one call.
        self.__dict__.update(
            effective_runtime_leakage=runtime_leakage,
            total_area=area,
            total_peak_dynamic_power=peak,
            total_runtime_dynamic_power=runtime,
            total_leakage_power=leakage,
            total_runtime_leakage_power=total_runtime_leakage,
            total_peak_power=peak + leakage,
            total_runtime_power=runtime + total_runtime_leakage,
        )

    # -- utilities ---------------------------------------------------------------

    def child(self, name: str) -> "ComponentResult":
        """Return the direct child with ``name``.

        Raises:
            KeyError: If no such child exists.
        """
        for candidate in self.children:
            if candidate.name == name:
                return candidate
        raise KeyError(
            f"{self.name!r} has no child {name!r}; "
            f"children: {[c.name for c in self.children]}"
        )

    def find(self, name: str) -> "ComponentResult":
        """Depth-first search for a descendant (or self) named ``name``."""
        for node in self.walk():
            if node.name == name:
                return node
        raise KeyError(f"no component named {name!r} under {self.name!r}")

    def walk(self) -> Iterator["ComponentResult"]:
        """Iterate self and all descendants depth-first."""
        yield self
        for candidate in self.children:
            yield from candidate.walk()

    def scaled(self, factor: float) -> "ComponentResult":
        """Return a copy with every metric (recursively) multiplied.

        Used to account for N identical instances without re-modeling.
        The copy sums its own totals from its scaled metrics, as any
        tree does: ``total * factor`` can differ in the last bit.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        runtime_leakage = self.runtime_leakage_power
        return ComponentResult(
            self.name,
            self.area * factor,
            self.peak_dynamic_power * factor,
            self.runtime_dynamic_power * factor,
            self.leakage_power * factor,
            tuple([c.scaled(factor) for c in self.children]),
            None if runtime_leakage is None else runtime_leakage * factor,
        )

    def with_leakage_gating(self, retained: float) -> "ComponentResult":
        """Return a copy with runtime leakage scaled to ``retained``.

        Applied recursively: every node's runtime leakage becomes
        ``retained * leakage_power`` — the effect of sleep transistors
        cutting the rails of an idle block.

        Raises:
            ValueError: If ``retained`` is outside [0, 1].
        """
        if not 0.0 <= retained <= 1.0:
            raise ValueError("retained fraction must be within [0, 1]")
        return replace(
            self,
            runtime_leakage_power=self.leakage_power * retained,
            children=tuple(
                c.with_leakage_gating(retained) for c in self.children
            ),
        )


def combine(name: str, children: list[ComponentResult]) -> ComponentResult:
    """Group results under a parent with no exclusive costs of its own."""
    return ComponentResult(name=name, children=tuple(children))


def summed_area(results: Iterable[ComponentResult]) -> float:
    """The results' total areas added left to right from the int 0, as
    builtin ``sum()`` adds them through Python 3.11 (m^2)."""
    area = 0
    for result in results:
        area += result.total_area
    return area

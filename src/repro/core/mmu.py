"""Memory Management Unit: instruction and data TLBs.

Both TLBs are fully associative CAMs (the common design at these sizes):
a virtual-page-number search delivering a physical page number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.activity import CoreActivity
from repro.array import CamArray
from repro.chip.results import ComponentResult
from repro.config.schema import PAGE_OFFSET_BITS, CoreConfig
from repro.core.common import cam_result
from repro.tech import Technology


@dataclass(frozen=True)
class MemoryManagementUnit:
    """TLBs of one core."""

    tech: Technology
    config: CoreConfig

    @property
    def _vpn_bits(self) -> int:
        return self.config.virtual_address_bits - PAGE_OFFSET_BITS

    @cached_property
    def itlb(self) -> CamArray:
        """The instruction TLB."""
        return CamArray(
            tech=self.tech,
            entries=self.config.itlb_entries,
            tag_bits=self._vpn_bits,
        )

    @cached_property
    def dtlb(self) -> CamArray:
        """The data TLB."""
        ports = max(1, min(2, self.config.issue_width // 2))
        return CamArray(
            tech=self.tech,
            entries=self.config.dtlb_entries,
            tag_bits=self._vpn_bits,
            search_ports=ports,
        )

    def result(
        self,
        clock_hz: float,
        activity: CoreActivity | None = None,
    ) -> ComponentResult:
        """Report the MMU subtree."""
        peak = CoreActivity.peak(self.config.issue_width)

        def itlb_rates(act: CoreActivity | None) -> tuple[float, float]:
            if act is None:
                return 0.0, 0.0
            fetches = min(
                1.0,
                act.ipc * act.fetch_factor / self.config.fetch_width,
            ) * act.duty_cycle
            refills = fetches * 0.001  # TLB misses are rare at TDP too
            return fetches, refills

        def dtlb_rates(act: CoreActivity | None) -> tuple[float, float]:
            if act is None:
                return 0.0, 0.0
            accesses = (
                act.ipc
                * (act.load_fraction + act.store_fraction)
                * act.duty_cycle
            )
            return accesses, accesses * 0.001

        children = [
            cam_result("itlb", self.itlb, clock_hz,
                       *itlb_rates(peak), *itlb_rates(activity)),
            cam_result("dtlb", self.dtlb, clock_hz,
                       *dtlb_rates(peak), *dtlb_rates(activity)),
        ]
        return ComponentResult(
            name="Memory Management Unit", children=tuple(children)
        )

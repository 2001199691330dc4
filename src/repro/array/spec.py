"""Architect-facing specification of a memory array.

McPAT's philosophy is that the user describes arrays at the architecture
level (how many entries, how wide, how many ports) and the tool derives the
circuit-level organization itself. :class:`ArraySpec` is that description.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class CellType(str, Enum):
    """Storage cell implementation."""

    SRAM = "sram"
    DFF = "dff"
    EDRAM = "edram"


@dataclass(frozen=True)
class PortCounts:
    """Port configuration of an array.

    Attributes:
        read_write: Shared read/write ports (differential, full cell cost).
        read: Read-only ports (can be single-ended; cheaper).
        write: Write-only ports.
    """

    read_write: int = 1
    read: int = 0
    write: int = 0

    def __post_init__(self) -> None:
        if self.read_write < 0 or self.read < 0 or self.write < 0:
            raise ValueError("port counts must be non-negative")
        if self.total == 0:
            raise ValueError("an array needs at least one port")
        if self.read_write + max(self.read, self.write) > 16:
            raise ValueError("more than 16 ports is outside the model range")

    @property
    def total(self) -> int:
        """Total number of ports."""
        return self.read_write + self.read + self.write

    @property
    def read_capable(self) -> int:
        """Ports that can read."""
        return self.read_write + self.read

    @property
    def write_capable(self) -> int:
        """Ports that can write."""
        return self.read_write + self.write

    @property
    def area_cost_factor(self) -> float:
        """Linear growth factor for each cell dimension.

        Each additional differential port adds a wordline track and a
        bitline pair per cell; single-ended read ports add roughly 60%
        of that. Both cell width and height grow by this factor, so area
        grows quadratically with port count — matching CACTI.
        """
        extra_full = self.read_write - 1 + self.write
        extra_read = self.read
        return 1.0 + 0.8 * extra_full + 0.5 * extra_read


@dataclass(frozen=True)
class ArraySpec:
    """A memory array as seen by the architecture level.

    Attributes:
        name: Label used in reports.
        entries: Number of addressable entries (rows, logically).
        width_bits: Bits per entry.
        ports: Port configuration.
        cell_type: SRAM (large arrays) or DFF (small latch-based buffers).
        n_banks: Independently addressable banks; the array is replicated
            and an inter-bank H-tree added.
        output_bits: Bits that actually leave the array per access (the
            data H-tree width). Defaults to ``width_bits``; set-associative
            caches read all ways internally but only route one way out.
        target_access_time: Optional upper bound on access time (s).
        target_cycle_time: Optional upper bound on random cycle time (s).
    """

    name: str
    entries: int
    width_bits: int
    ports: PortCounts = field(default_factory=PortCounts)
    cell_type: CellType = CellType.SRAM
    n_banks: int = 1
    output_bits: int | None = None
    target_access_time: float | None = None
    target_cycle_time: float | None = None

    def __post_init__(self) -> None:
        if self.entries < 1:
            raise ValueError(f"entries must be >= 1, got {self.entries}")
        if self.width_bits < 1:
            raise ValueError(f"width must be >= 1 bit, got {self.width_bits}")
        if self.n_banks < 1:
            raise ValueError(f"banks must be >= 1, got {self.n_banks}")
        if self.n_banks & (self.n_banks - 1):
            raise ValueError(f"banks must be a power of two, got {self.n_banks}")
        if self.output_bits is not None and not (
            1 <= self.output_bits <= self.width_bits
        ):
            raise ValueError(
                f"output_bits must be in [1, {self.width_bits}], "
                f"got {self.output_bits}"
            )
        for name in ("target_access_time", "target_cycle_time"):
            target = getattr(self, name)
            # Chained so that NaN fails it too (``target <= 0`` would not).
            if target is not None and not 0 < target < math.inf:
                raise ValueError(
                    f"{name} must be finite and positive, got {target!r}"
                )

    @property
    def capacity_bits(self) -> int:
        """Total stored bits across all banks."""
        return self.entries * self.width_bits

    @property
    def capacity_bytes(self) -> float:
        """Total stored bytes."""
        return self.capacity_bits / 8.0

    @property
    def entries_per_bank(self) -> int:
        """Entries served by one bank."""
        return max(1, self.entries // self.n_banks)

    @property
    def routed_bits(self) -> int:
        """Bits carried by the data H-tree per access."""
        return self.output_bits if self.output_bits is not None else (
            self.width_bits
        )

    @property
    def address_bits(self) -> int:
        """Address width needed to select an entry."""
        return max(1, math.ceil(math.log2(self.entries)))

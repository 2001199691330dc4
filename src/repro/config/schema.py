"""Configuration dataclasses describing a multicore processor.

Everything here is architecture-level: widths, entry counts, capacities,
topologies. No circuit-level parameters appear — deriving those is the
framework's job (the paper's usability claim vs. raw CACTI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.tech import SUPPORTED_NODES_NM, DeviceType
from repro.tech.technology import MAX_TEMPERATURE_K, MIN_TEMPERATURE_K

#: Page offset bits (4 KB pages): the TLBs tag the virtual address bits
#: above them (:mod:`repro.core.mmu`).
PAGE_OFFSET_BITS = 12


# The chained comparisons below are written so that NaN fails them
# (every comparison with NaN is False) and the ``< inf`` bound rejects
# infinity; ``value <= 0`` would let both through.


def _require_positive(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def _require_non_negative(name: str, value: float) -> None:
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _require_power_of_two(name: str, value: int) -> None:
    if value < 1 or value & (value - 1):
        raise ValueError(f"{name} must be a power of two, got {value!r}")


def _require_cache_shape(capacity_bytes: int, block_bytes: int,
                         associativity: int, banks: int) -> None:
    """What the cache array model (:mod:`repro.array`) builds: a
    power-of-two line and bank count, at least one line, and whole
    sets (associativity 0 is fully associative)."""
    _require_power_of_two("block_bytes", block_bytes)
    if capacity_bytes < block_bytes:
        raise ValueError(
            f"capacity_bytes must hold at least one {block_bytes}-byte "
            f"block, got {capacity_bytes!r}"
        )
    if associativity < 0:
        raise ValueError(
            f"associativity must be >= 0 (0 = fully associative), "
            f"got {associativity!r}"
        )
    blocks = capacity_bytes // block_bytes
    if associativity and blocks % associativity:
        raise ValueError(
            f"capacity_bytes must divide into whole {associativity}-way "
            f"sets of {block_bytes}-byte blocks, got {capacity_bytes!r}"
        )
    _require_power_of_two("banks", banks)


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one private cache level.

    Attributes:
        capacity_bytes: Total data capacity.
        block_bytes: Line size.
        associativity: Ways (0 = fully associative).
        mshr_entries: Outstanding-miss registers.
        banks: Independent banks.
    """

    capacity_bytes: int
    block_bytes: int = 64
    associativity: int = 4
    mshr_entries: int = 8
    banks: int = 1

    def __post_init__(self) -> None:
        _require_cache_shape(self.capacity_bytes, self.block_bytes,
                             self.associativity, self.banks)
        if self.mshr_entries < 0:
            raise ValueError("mshr_entries must be non-negative")


@dataclass(frozen=True)
class BranchPredictorConfig:
    """Branch prediction structures (tournament predictor + BTB + RAS)."""

    btb_entries: int = 2048
    btb_tag_bits: int = 36
    global_entries: int = 4096
    local_entries: int = 1024
    chooser_entries: int = 4096
    counter_bits: int = 2
    ras_entries: int = 16

    def __post_init__(self) -> None:
        for name in ("btb_entries", "global_entries", "local_entries",
                     "chooser_entries", "ras_entries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.counter_bits < 1:
            raise ValueError("counter_bits must be >= 1")


@dataclass(frozen=True)
class CoreConfig:
    """One core's architectural parameters.

    In-order cores leave the OOO fields at zero; out-of-order cores must
    set physical register counts, window, and ROB sizes.
    """

    name: str = "core"
    is_ooo: bool = False
    is_x86: bool = False
    power_gating: bool = False
    hardware_threads: int = 1

    fetch_width: int = 1
    decode_width: int = 1
    issue_width: int = 1
    commit_width: int = 1
    pipeline_stages: int = 6
    machine_bits: int = 64
    virtual_address_bits: int = 48
    physical_address_bits: int = 40

    int_alus: int = 1
    fpus: int = 1
    mul_divs: int = 1

    arch_int_regs: int = 32
    arch_fp_regs: int = 32
    phys_int_regs: int = 0
    phys_fp_regs: int = 0

    rob_entries: int = 0
    issue_window_entries: int = 0
    fp_issue_window_entries: int = 0
    load_queue_entries: int = 16
    store_queue_entries: int = 16

    instruction_buffer_entries: int = 16
    itlb_entries: int = 64
    dtlb_entries: int = 64

    icache: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(capacity_bytes=16 * 1024)
    )
    dcache: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(capacity_bytes=8 * 1024)
    )
    branch_predictor: BranchPredictorConfig | None = field(
        default_factory=BranchPredictorConfig
    )

    def __post_init__(self) -> None:
        for name in ("hardware_threads", "fetch_width", "decode_width",
                     "issue_width", "commit_width", "pipeline_stages",
                     "machine_bits", "itlb_entries", "dtlb_entries",
                     "arch_int_regs", "arch_fp_regs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.virtual_address_bits <= PAGE_OFFSET_BITS:
            raise ValueError(
                f"virtual_address_bits must exceed the {PAGE_OFFSET_BITS} "
                f"page-offset bits, got {self.virtual_address_bits}"
            )
        for name in ("int_alus", "fpus", "mul_divs", "phys_int_regs",
                     "phys_fp_regs", "rob_entries", "issue_window_entries",
                     "fp_issue_window_entries", "load_queue_entries",
                     "store_queue_entries", "instruction_buffer_entries"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.is_ooo:
            if self.rob_entries < 1:
                raise ValueError("an OOO core needs rob_entries >= 1")
            if self.issue_window_entries < 1:
                raise ValueError("an OOO core needs issue_window_entries >= 1")
            if self.phys_int_regs <= self.arch_int_regs:
                raise ValueError(
                    "an OOO core needs more physical than architectural "
                    "integer registers"
                )

    @property
    def register_tag_bits(self) -> int:
        """Physical-register specifier width for rename structures."""
        import math

        regs = max(self.phys_int_regs, self.arch_int_regs, 2)
        return max(1, math.ceil(math.log2(regs)))


class NocTopology(str, Enum):
    """Supported on-chip interconnect styles."""

    NONE = "none"
    BUS = "bus"
    CROSSBAR = "crossbar"
    RING = "ring"
    MESH_2D = "mesh_2d"
    TORUS_2D = "torus_2d"
    CMESH_2D = "cmesh_2d"  # concentrated mesh: 4 endpoints per router


class LinkSignaling(str, Enum):
    """Electrical signaling of NoC links."""

    FULL_SWING = "full_swing"
    LOW_SWING = "low_swing"


@dataclass(frozen=True)
class NocConfig:
    """On-chip network parameters.

    Attributes:
        topology: Interconnect style.
        flit_bits: Link/flit width.
        virtual_channels: VCs per input port (routers only).
        buffer_depth: Flits buffered per VC.
        has_separate_clock: If the NoC runs at its own clock.
        clock_hz: NoC clock if separate (else the chip clock is used).
        external_ports: Off-chip network ports (e.g. the Alpha 21364's
            inter-processor torus links); forces a router to exist even on
            single-endpoint chips.
        link_signaling: Full-swing repeated wires (default) or low-swing
            differential links (slower, much lower energy).
    """

    topology: NocTopology = NocTopology.MESH_2D
    flit_bits: int = 128
    virtual_channels: int = 2
    buffer_depth: int = 4
    has_separate_clock: bool = False
    clock_hz: float = 0.0
    external_ports: int = 0
    link_signaling: LinkSignaling = LinkSignaling.FULL_SWING

    def __post_init__(self) -> None:
        if self.flit_bits < 8:
            raise ValueError("flit_bits must be >= 8")
        if self.virtual_channels < 1:
            raise ValueError("virtual_channels must be >= 1")
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if not -math.inf < self.clock_hz < math.inf:
            raise ValueError(
                f"clock_hz must be finite, got {self.clock_hz!r}"
            )
        if self.has_separate_clock:
            _require_positive("clock_hz (separate NoC clock)", self.clock_hz)
        if self.external_ports < 0:
            raise ValueError("external_ports must be non-negative")


@dataclass(frozen=True)
class SharedCacheConfig:
    """A shared cache level (L2 or L3) with optional coherence directory."""

    name: str = "L2"
    capacity_bytes: int = 2 * 1024 * 1024
    block_bytes: int = 64
    associativity: int = 8
    banks: int = 4
    instances: int = 1
    mshr_entries: int = 16
    directory_sharers: int = 0  # extra per-line bits for coherence state

    def __post_init__(self) -> None:
        _require_cache_shape(self.capacity_bytes, self.block_bytes,
                             self.associativity, self.banks)
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        if self.mshr_entries < 0:
            raise ValueError("mshr_entries must be non-negative")
        if self.directory_sharers < 0:
            raise ValueError("directory_sharers must be non-negative")


@dataclass(frozen=True)
class NiuConfig:
    """On-die network interface unit (Ethernet MAC + SerDes)."""

    ports: int = 1
    bandwidth_gbps: float = 10.0

    def __post_init__(self) -> None:
        if self.ports < 0:
            raise ValueError("ports must be non-negative")
        _require_positive("bandwidth_gbps", self.bandwidth_gbps)


@dataclass(frozen=True)
class PcieConfig:
    """On-die PCIe controller."""

    lanes: int = 8
    gen: int = 2

    def __post_init__(self) -> None:
        if self.lanes < 0:
            raise ValueError("lanes must be non-negative")
        if self.gen not in (1, 2, 3):
            raise ValueError("gen must be 1, 2, or 3")


@dataclass(frozen=True)
class MemoryControllerConfig:
    """Off-chip memory controller parameters."""

    channels: int = 1
    data_bus_bits: int = 64
    address_bus_bits: int = 40
    request_queue_entries: int = 32
    peak_transfer_rate_mts: float = 3200.0  # mega-transfers/s per channel
    has_phy: bool = True

    def __post_init__(self) -> None:
        if self.channels < 0:
            raise ValueError("channels must be non-negative")
        if self.data_bus_bits < 8:
            raise ValueError("data_bus_bits must be >= 8")
        if self.request_queue_entries < 1:
            raise ValueError("request_queue_entries must be >= 1")
        _require_positive(
            "peak_transfer_rate_mts", self.peak_transfer_rate_mts,
        )


@dataclass(frozen=True)
class SystemConfig:
    """The whole chip.

    Attributes:
        name: Chip label for reports.
        node_nm: Technology node.
        temperature_k: Junction temperature for leakage.
        device_type: Logic device flavor.
        clock_hz: Target core clock.
        n_cores: Number of identical (big) cores.
        core: Per-core configuration of the big cores.
        little_core: Configuration of an optional second, smaller core
            type (heterogeneous / big.LITTLE chips).
        n_little_cores: Number of little cores (0 = homogeneous).
        l2: Shared L2 configuration (None if absent).
        l3: Shared L3 configuration (None if absent).
        noc: Interconnect configuration.
        memory_controller: MC configuration (channels=0 disables).
        niu: On-die Ethernet NIU (None if absent).
        pcie: On-die PCIe controller (None if absent).
        vdd_v: Operate the chip at a non-nominal supply voltage (DVFS);
            None uses the technology flavor's nominal Vdd. The caller
            sets ``clock_hz`` consistently (see
            ``Technology.max_clock_scale``).
        io_area_fraction: Fraction of the die taken by pads, PLLs and
            other I/O not modeled structurally.
        io_peak_power_w: Peak power of that I/O ring (from the design's
            interface inventory; 0 if unknown).
    """

    name: str
    node_nm: int
    clock_hz: float
    n_cores: int
    core: CoreConfig
    little_core: CoreConfig | None = None
    n_little_cores: int = 0
    temperature_k: float = 360.0
    device_type: DeviceType = DeviceType.HP
    l2: SharedCacheConfig | None = None
    l3: SharedCacheConfig | None = None
    noc: NocConfig = field(default_factory=NocConfig)
    memory_controller: MemoryControllerConfig = field(
        default_factory=MemoryControllerConfig
    )
    niu: NiuConfig | None = None
    pcie: PcieConfig | None = None
    vdd_v: float | None = None
    io_area_fraction: float = 0.15
    io_peak_power_w: float = 0.0
    whitespace_fraction: float = 0.12

    def __post_init__(self) -> None:
        if self.node_nm not in SUPPORTED_NODES_NM:
            raise ValueError(
                "node_nm must be one of "
                f"{', '.join(str(n) for n in SUPPORTED_NODES_NM)}, "
                f"got {self.node_nm!r}"
            )
        if not MIN_TEMPERATURE_K <= self.temperature_k <= MAX_TEMPERATURE_K:
            raise ValueError(
                f"temperature_k must be within [{MIN_TEMPERATURE_K:g}, "
                f"{MAX_TEMPERATURE_K:g}] K, got {self.temperature_k!r}"
            )
        _require_positive("clock_hz", self.clock_hz)
        if self.n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if not 0.0 <= self.io_area_fraction < 0.9:
            raise ValueError("io_area_fraction must be within [0, 0.9)")
        _require_non_negative("io_peak_power_w", self.io_peak_power_w)
        if not 0.0 <= self.whitespace_fraction < 0.9:
            raise ValueError("whitespace_fraction must be within [0, 0.9)")
        if self.vdd_v is not None:
            _require_positive("vdd_v", self.vdd_v)
        if self.n_little_cores < 0:
            raise ValueError("n_little_cores must be non-negative")
        if self.n_little_cores > 0 and self.little_core is None:
            raise ValueError(
                "n_little_cores > 0 requires a little_core configuration"
            )

    @property
    def total_cores(self) -> int:
        """Big plus little cores."""
        return self.n_cores + self.n_little_cores

    @property
    def cycle_time(self) -> float:
        """Target cycle time (s)."""
        return 1.0 / self.clock_hz

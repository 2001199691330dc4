"""The manycore clustering case study (figures F-C1..F-C4).

A 64-core 22 nm CMP built from Niagara2-class cores; ``cores_per_cluster``
cores share one L2 instance, and clusters are the mesh endpoints. Larger
clusters shrink the network (fewer routers and links — less interconnect
power) but pay intra-cluster arbitration and L2 contention. The study
sweeps the cluster size over SPLASH-2-like workloads and reports power
breakdowns, performance, EDP, and ED^2P — averaged the way the paper
averages (arithmetic mean of times, derived metrics from the means).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chip import Processor
from repro.config import presets
from repro.perf import MulticoreSimulator, SPLASH2_PROFILES, Workload

#: Default sweep (divisors of the 64-core chip).
CLUSTER_SIZES = (1, 2, 4, 8, 16)

#: Default workload set (a spread of compute/memory/sharing behavior).
DEFAULT_WORKLOADS = ("barnes", "fmm", "ocean", "lu", "water", "cholesky")


@dataclass(frozen=True)
class ClusterPoint:
    """Study results for one cluster size (averaged over workloads).

    Attributes:
        cores_per_cluster: Cluster size.
        n_clusters: Mesh endpoints.
        area_mm2: Die area.
        runtime_s: Mean run time across workloads.
        throughput_gips: Mean chip throughput (GInstr/s).
        power_w: Mean runtime power (dynamic + leakage).
        core_power_w: Mean cores' runtime power.
        l2_power_w: Mean L2 runtime power.
        noc_power_w: Mean NoC runtime power.
        energy_j: power x runtime.
        edp: Energy-delay product (J*s).
        ed2p: Energy-delay^2 product (J*s^2).
    """

    cores_per_cluster: int
    n_clusters: int
    area_mm2: float
    runtime_s: float
    throughput_gips: float
    power_w: float
    core_power_w: float
    l2_power_w: float
    noc_power_w: float

    @property
    def energy_j(self) -> float:
        return self.power_w * self.runtime_s

    @property
    def edp(self) -> float:
        return self.energy_j * self.runtime_s

    @property
    def ed2p(self) -> float:
        return self.edp * self.runtime_s


def _mean(values: list[float]) -> float:
    """The values' mean, added left to right from the int 0 as builtin
    ``sum()`` adds them through Python 3.11."""
    total = 0
    for value in values:
        total += value
    return total / len(values)


def run_clustering_study(
    n_cores: int = 64,
    cluster_sizes: tuple[int, ...] | None = None,
    workload_names: tuple[str, ...] = DEFAULT_WORKLOADS,
) -> list[ClusterPoint]:
    """Run the sweep and average across workloads per design point.

    Args:
        n_cores: Chip size.
        cluster_sizes: Sizes to sweep; ``None`` uses every default size
            that divides ``n_cores``. Explicit non-divisor sizes raise.
        workload_names: Keys into :data:`SPLASH2_PROFILES`.
    """
    if cluster_sizes is None:
        cluster_sizes = tuple(
            s for s in CLUSTER_SIZES if s <= n_cores and n_cores % s == 0
        )
    workloads: list[Workload] = [
        SPLASH2_PROFILES[name] for name in workload_names
    ]
    points: list[ClusterPoint] = []
    for size in cluster_sizes:
        if n_cores % size:
            raise ValueError(
                f"cluster size {size} does not divide {n_cores} cores"
            )
        config = presets.manycore_cluster(
            n_cores=n_cores, cores_per_cluster=size,
        )
        processor = Processor(config)
        simulator = MulticoreSimulator(processor)

        runtimes, throughputs = [], []
        powers, core_powers, l2_powers, noc_powers = [], [], [], []
        for workload in workloads:
            result = simulator.run(workload)
            report = processor.report(result.activity)
            runtimes.append(result.runtime_s)
            throughputs.append(result.throughput_ips / 1e9)
            powers.append(report.total_runtime_power)
            core_powers.append(next(
                c.total_runtime_power for c in report.children
                if c.name.startswith("Cores")
            ))
            l2_powers.append(next(
                (c.total_runtime_power for c in report.children
                 if c.name.startswith("L2")), 0.0,
            ))
            noc_powers.append(report.child("NoC").total_runtime_power)

        points.append(ClusterPoint(
            cores_per_cluster=size,
            n_clusters=n_cores // size,
            area_mm2=processor.area * 1e6,
            runtime_s=_mean(runtimes),
            throughput_gips=_mean(throughputs),
            power_w=_mean(powers),
            core_power_w=_mean(core_powers),
            l2_power_w=_mean(l2_powers),
            noc_power_w=_mean(noc_powers),
        ))
    return points


def optimal_cluster_size(
    points: list[ClusterPoint],
    metric: str = "ed2p",
) -> int:
    """Cluster size minimizing a metric (``"edp"``, ``"ed2p"``,
    ``"runtime_s"``, or ``"power_w"``)."""
    best = min(points, key=lambda p: getattr(p, metric))
    return best.cores_per_cluster


def format_clustering_table(points: list[ClusterPoint]) -> str:
    """Render the case-study figures' data as text."""
    lines = [
        f"{'cpc':>4} {'clusters':>8} {'area':>8} {'time s':>8} "
        f"{'GIPS':>7} {'P (W)':>8} {'cores W':>8} {'L2 W':>7} "
        f"{'NoC W':>7} {'EDP':>9} {'ED2P':>10}",
        "-" * 96,
    ]
    for p in points:
        lines.append(
            f"{p.cores_per_cluster:>4} {p.n_clusters:>8} "
            f"{p.area_mm2:>8.1f} {p.runtime_s:>8.3f} "
            f"{p.throughput_gips:>7.1f} {p.power_w:>8.1f} "
            f"{p.core_power_w:>8.1f} {p.l2_power_w:>7.1f} "
            f"{p.noc_power_w:>7.2f} {p.edp:>9.1f} {p.ed2p:>10.1f}"
        )
    return "\n".join(lines)

"""Performance substrate: the analytical stand-in for McPAT's external
performance simulator.

McPAT consumes activity statistics produced by a performance simulator
(M5-class in the paper's case study). Proprietary simulators and traces
are unavailable here, so this package provides the closest synthetic
equivalent: an analytical multicore CPI model with shared-cache
contention, NoC latency, and memory-bandwidth rooflines, driven by
SPLASH-2-like workload profiles. It produces exactly what McPAT consumes
— per-component activity factors and end-to-end run time — preserving the
relative behavior across design points, which is all the case study needs.
"""

from repro.perf.workload import Workload, SPLASH2_PROFILES
from repro.perf.cpi_model import CpiBreakdown, estimate_cpi
from repro.perf.multicore_sim import MulticoreSimulator, SimulationResult

__all__ = [
    "Workload",
    "SPLASH2_PROFILES",
    "CpiBreakdown",
    "estimate_cpi",
    "MulticoreSimulator",
    "SimulationResult",
]

#!/usr/bin/env python3
"""Drive the power model from simulator statistics (the McPAT workflow).

McPAT's intended use is downstream of a performance simulator: the
simulator emits counters, McPAT turns them into power. This example
writes a small gem5-style ``stats.txt``, parses it, adapts the counters
into an activity bundle, and reports runtime power — the full
integration path, no performance substrate involved.

Run:  python examples/gem5_integration.py
"""

import tempfile
from pathlib import Path

from repro import Processor, presets
from repro.stats_adapter import (
    parse_gem5_stats,
    system_activity_from_stats,
)

# A miniature stats dump in gem5's "name value # description" format.
STATS_TXT = """\
---------- Begin Simulation Statistics ----------
sim_cycles                  2000000      # Number of cycles simulated
committed_insts             1500000      # Committed instructions
fetched_insts               1800000      # Fetched instructions
num_load_insts               380000      # Committed loads
num_store_insts              150000      # Committed stores
num_branches                 220000      # Committed branches
num_fp_insts                  90000      # Committed FP ops
num_mult_insts                20000      # Committed mul/div
icache_accesses             1700000      # L1-I lookups
icache_misses                  17000     # L1-I misses
dcache_accesses              530000      # L1-D lookups
dcache_misses                  26500     # L1-D misses
l2_accesses                    43000     # L2 lookups
l2_misses                      12000     # L2 misses
l2_writebacks                   9000     # L2 writebacks
noc_flits                     120000     # Flits injected
mem_reads                      11000     # DRAM reads
mem_writes                      4000     # DRAM writes
host_seconds                     nan     # (skipped: non-numeric)
---------- End Simulation Statistics   ----------
"""


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        stats_path = Path(tmp) / "stats.txt"
        stats_path.write_text(STATS_TXT)

        counters = parse_gem5_stats(stats_path)
        print(f"parsed {len(counters)} counters from {stats_path.name}")

    chip = Processor(presets.niagara2())
    activity = system_activity_from_stats(
        counters,
        n_l2_instances=1,
        n_routers=chip.parts.noc_endpoints,
    )
    print(f"core IPC from counters: {activity.core.ipc:.2f}, "
          f"D-miss rate {activity.core.dcache_miss_rate:.1%}")

    report = chip.report(activity)
    print(f"\n{chip.config.name}: "
          f"runtime power {report.total_runtime_power:.1f} W "
          f"(TDP {chip.tdp:.1f} W)")
    for child in report.children:
        runtime = child.total_runtime_power
        if runtime > 0.05:
            print(f"  {child.name:<24} {runtime:7.2f} W")


if __name__ == "__main__":
    main()

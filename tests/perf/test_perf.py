"""Unit + integration tests for the performance substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chip import Processor
from repro.config import presets
from repro.config.schema import CoreConfig
from repro.perf import (
    MulticoreSimulator,
    SPLASH2_PROFILES,
    Workload,
    estimate_cpi,
)


class TestWorkload:
    def test_profiles_available(self):
        assert len(SPLASH2_PROFILES) >= 6
        assert "barnes" in SPLASH2_PROFILES
        assert "ocean" in SPLASH2_PROFILES

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(name="bad", base_cpi=0)
        with pytest.raises(ValueError):
            Workload(name="bad", base_cpi=1.0, load_fraction=1.5)

    def test_l2_miss_rate_shrinks_with_capacity(self):
        wl = SPLASH2_PROFILES["ocean"]
        small = wl.l2_miss_rate(256 * 1024)
        big = wl.l2_miss_rate(8 * 1024 * 1024)
        assert big < small

    def test_l2_miss_rate_bounded(self):
        wl = SPLASH2_PROFILES["ocean"]
        assert wl.l2_miss_rate(1.0) == pytest.approx(1.0)
        assert 0.0 < wl.l2_miss_rate(1e12) <= 1.0


class TestCpiModel:
    WL = SPLASH2_PROFILES["barnes"]

    def test_perfect_memory_hits_pipeline_bound(self):
        core = CoreConfig(issue_width=2)
        cpi = estimate_cpi(core, self.WL, 0.0, 0.0, 0.0)
        assert cpi.l1_miss_stall == pytest.approx(0.0)
        assert cpi.l2_miss_stall == pytest.approx(0.0)
        assert cpi.total == pytest.approx(cpi.pipeline)

    def test_memory_latency_hurts(self):
        core = CoreConfig()
        fast = estimate_cpi(core, self.WL, 10.0, 0.2, 100.0)
        slow = estimate_cpi(core, self.WL, 40.0, 0.2, 400.0)
        assert slow.total > fast.total

    def test_ooo_overlaps_misses(self):
        inorder = CoreConfig(issue_width=2)
        ooo = CoreConfig(
            issue_width=2, is_ooo=True, rob_entries=64,
            issue_window_entries=32, phys_int_regs=64,
        )
        cpi_in = estimate_cpi(inorder, self.WL, 20.0, 0.3, 200.0)
        cpi_ooo = estimate_cpi(ooo, self.WL, 20.0, 0.3, 200.0)
        assert cpi_ooo.l2_miss_stall < cpi_in.l2_miss_stall

    def test_multithreading_hides_stalls(self):
        single = CoreConfig(hardware_threads=1)
        quad = CoreConfig(hardware_threads=4)
        cpi_1 = estimate_cpi(single, self.WL, 20.0, 0.3, 200.0)
        cpi_4 = estimate_cpi(quad, self.WL, 20.0, 0.3, 200.0)
        assert cpi_4.l2_miss_stall < cpi_1.l2_miss_stall

    def test_cpi_falls_with_each_thread_doubling(self):
        """The Niagara bet: on ocean with slow memory, each doubling of
        hardware threads up to 8 hides more of the stall."""
        cpis = [
            estimate_cpi(CoreConfig(hardware_threads=threads),
                         SPLASH2_PROFILES["ocean"], 20.0, 0.4, 200.0).total
            for threads in (1, 2, 4, 8)
        ]
        assert all(more < fewer for fewer, more in zip(cpis, cpis[1:]))

    def test_invalid_inputs_rejected(self):
        core = CoreConfig()
        with pytest.raises(ValueError):
            estimate_cpi(core, self.WL, -1.0, 0.1, 100.0)
        with pytest.raises(ValueError):
            estimate_cpi(core, self.WL, 1.0, 1.5, 100.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0, max_value=100),
           st.floats(min_value=0, max_value=1),
           st.floats(min_value=0, max_value=1000))
    def test_cpi_positive_and_ipc_bounded(self, l2_lat, miss, mem_lat):
        core = CoreConfig(issue_width=4)
        cpi = estimate_cpi(self.WL and core, self.WL, l2_lat, miss, mem_lat)
        assert cpi.total > 0
        assert cpi.ipc <= core.issue_width * 1.01


@pytest.fixture(scope="module")
def manycore():
    return Processor(presets.manycore_cluster(
        n_cores=16, cores_per_cluster=4))


class TestMulticoreSimulator:
    def test_result_fields(self, manycore):
        result = MulticoreSimulator(manycore).run(SPLASH2_PROFILES["lu"])
        assert result.ipc_per_core > 0
        assert result.throughput_ips > 0
        assert result.runtime_s > 0
        assert 0.0 <= result.bandwidth_utilization <= 1.0
        assert result.activity.core.ipc > 0
        assert result.activity.l2 is not None

    def test_memory_bound_slower_than_compute_bound(self, manycore):
        sim = MulticoreSimulator(manycore)
        compute = sim.run(SPLASH2_PROFILES["water"])
        memory = sim.run(SPLASH2_PROFILES["ocean"])
        assert memory.ipc_per_core < compute.ipc_per_core

    def test_activity_plugs_into_power_model(self, manycore):
        result = MulticoreSimulator(manycore).run(SPLASH2_PROFILES["fft"])
        report = manycore.report(result.activity)
        assert 0 < report.total_runtime_power < manycore.tdp * 1.1

    def test_bandwidth_roofline_binds_ocean(self):
        """A bandwidth-starved chip saturates its channels on ocean."""
        config = presets.manycore_cluster(n_cores=64, cores_per_cluster=4)
        processor = Processor(config)
        result = MulticoreSimulator(processor).run(SPLASH2_PROFILES["ocean"])
        assert result.bandwidth_utilization > 0.9

    def test_clustering_reduces_noc_power(self):
        """Fewer mesh endpoints -> less interconnect power (the case
        study's power-side claim)."""
        noc_powers = []
        for size in (1, 4, 16):
            processor = Processor(presets.manycore_cluster(
                n_cores=16, cores_per_cluster=size))
            result = MulticoreSimulator(processor).run(
                SPLASH2_PROFILES["barnes"])
            report = processor.report(result.activity)
            noc_powers.append(report.child("NoC").total_runtime_power)
        assert noc_powers[0] > noc_powers[1] > noc_powers[2]

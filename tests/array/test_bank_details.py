"""Detailed tests for the bank model, :func:`bank_figures`, as the
organization search scores one tiling with it."""

import pytest

from repro.array import build_array, search_organizations
from repro.array.spec import ArraySpec
from repro.tech import Technology

TECH = Technology(node_nm=65, temperature_k=360)


def scored(entries=1024, width=256, ndwl=2, ndbl=2, nspd=1):
    """The search's figures for one tiling of an ``entries x width``
    array."""
    spec = ArraySpec(name="bank-test", entries=entries, width_bits=width)
    return next(
        c for c in search_organizations(TECH, spec)
        if (c.ndwl, c.ndbl, c.nspd) == (ndwl, ndbl, nspd)
    )


class TestBank:
    def test_active_subarrays_is_ndwl(self):
        """One stripe of ndwl subarrays fires; all ndwl x ndbl leak."""
        tiling = scored(ndwl=4, ndbl=2)
        sub, bank = tiling.subarray, tiling.bank
        assert bank.read_energy == 4 * sub.read_energy + bank.htree_energy
        assert bank.leakage_power > 8 * sub.leakage_power

    def test_htree_length_from_geometry(self):
        bank = scored().bank
        assert bank.htree_length == pytest.approx(
            0.25 * (bank.width + bank.height))

    def test_read_energy_composition(self):
        tiling = scored()
        assert tiling.bank.read_energy > (
            tiling.ndwl * tiling.subarray.read_energy)

    def test_more_partitions_shorter_access(self):
        monolithic = scored(entries=1024, width=512, ndwl=1, ndbl=1)
        partitioned = scored(entries=1024, width=512, ndwl=4, ndbl=4)
        assert (partitioned.subarray.access_delay
                < monolithic.subarray.access_delay)

    def test_cycle_time_from_subarray(self):
        spec = ArraySpec(name="bank-test", entries=1024, width_bits=256)
        best = search_organizations(TECH, spec)[0]
        assert best.cycle_time == best.subarray.cycle_time
        assert build_array(TECH, spec).cycle_time == best.subarray.cycle_time

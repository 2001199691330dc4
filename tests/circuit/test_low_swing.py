"""Unit tests for low-swing differential links."""

import pytest

from repro.circuit import LowSwingLink, RepeatedWire
from repro.config.schema import LinkSignaling
from repro.noc import Link
from repro.tech import Technology
from repro.tech.wire import WireType

TECH = Technology(node_nm=32, temperature_k=360)


class TestLowSwingLink:
    def test_length_limits(self):
        with pytest.raises(ValueError, match="practical"):
            LowSwingLink(TECH, length=0.02)
        with pytest.raises(ValueError):
            LowSwingLink(TECH, length=0.0)

    def test_energy_much_lower_than_full_swing(self):
        """The headline: ~5-10x lower energy per bit-mm."""
        length = 2e-3
        low = LowSwingLink(TECH, length=length)
        full = RepeatedWire(TECH, WireType.GLOBAL)
        assert low.energy_per_bit < full.energy(length) / 3

    def test_slower_than_repeated_wire_when_long(self):
        length = 5e-3
        low = LowSwingLink(TECH, length=length)
        full = RepeatedWire(TECH, WireType.GLOBAL)
        assert low.delay > full.delay(length)

    def test_delay_superlinear_in_length(self):
        short = LowSwingLink(TECH, length=1e-3)
        long = LowSwingLink(TECH, length=4e-3)
        assert long.delay > 4 * short.delay * 0.5  # RC term dominates

    def test_costs_positive(self):
        link = LowSwingLink(TECH, length=2e-3)
        assert link.leakage_power > 0
        assert link.area > 0


class TestNocLinkSignaling:
    def test_default_is_full_swing(self):
        link = Link(TECH, flit_bits=128, length=2e-3)
        assert not link.is_low_swing

    def test_low_swing_saves_energy(self):
        """A 128-bit, 2 mm link at 32 nm and at 65 nm: under half the
        energy per flit, for a longer delay."""
        for tech in (TECH, Technology(node_nm=65, temperature_k=360)):
            full = Link(tech, flit_bits=128, length=2e-3)
            low = Link(tech, flit_bits=128, length=2e-3,
                       signaling=LinkSignaling.LOW_SWING)
            assert low.energy_per_flit < full.energy_per_flit / 2
            assert low.delay > full.delay

    def test_noc_config_round_trip_with_signaling(self, tmp_path):
        import dataclasses

        from repro.config import (
            LinkSignaling as LS,
            load_system_config,
            presets,
            save_system_config,
        )

        config = presets.manycore_cluster(n_cores=8, cores_per_cluster=2)
        config = dataclasses.replace(
            config,
            noc=dataclasses.replace(
                config.noc, link_signaling=LS.LOW_SWING),
        )
        path = tmp_path / "ls.json"
        save_system_config(config, path)
        loaded = load_system_config(path)
        assert loaded.noc.link_signaling is LS.LOW_SWING

    def test_chip_level_noc_energy_drops(self):
        import dataclasses

        from repro.config import LinkSignaling as LS, presets
        from repro.chip import Processor

        base = presets.manycore_cluster(n_cores=16, cores_per_cluster=1)
        low = dataclasses.replace(
            base,
            noc=dataclasses.replace(base.noc,
                                    link_signaling=LS.LOW_SWING),
        )
        full_noc = Processor(base).parts.noc
        low_noc = Processor(low).parts.noc
        assert (low_noc.energy_per_flit_hop
                < full_noc.energy_per_flit_hop)

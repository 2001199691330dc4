"""Tests for the torus and concentrated-mesh topologies."""

import pytest

from repro.activity import NocActivity
from repro.config.schema import NocConfig, NocTopology
from repro.noc import NetworkOnChip
from repro.tech import Technology

TECH = Technology(node_nm=32, temperature_k=360)
CLOCK = 2e9
PITCH = 2e-3


def make(topology, n=64):
    return NetworkOnChip(
        tech=TECH,
        config=NocConfig(topology=topology),
        n_endpoints=n,
        endpoint_pitch=PITCH,
    )


class TestTorus:
    def test_same_router_count_as_mesh(self):
        assert make(NocTopology.TORUS_2D).n_routers == 64

    def test_fewer_hops_than_mesh(self):
        torus = make(NocTopology.TORUS_2D)
        mesh = make(NocTopology.MESH_2D)
        assert torus.average_hops < mesh.average_hops

    def test_longer_links_than_mesh(self):
        torus = make(NocTopology.TORUS_2D)
        mesh = make(NocTopology.MESH_2D)
        assert torus.link.length == pytest.approx(2 * mesh.link.length)

    def test_result_positive(self):
        result = make(NocTopology.TORUS_2D).result(CLOCK, NocActivity())
        assert result.total_area > 0
        assert result.total_leakage_power > 0


class TestConcentratedMesh:
    def test_quarter_the_routers(self):
        assert make(NocTopology.MESH_2D).n_routers == 64
        assert make(NocTopology.CMESH_2D).n_routers == 16

    def test_higher_radix_routers(self):
        cmesh = make(NocTopology.CMESH_2D)
        mesh = make(NocTopology.MESH_2D)
        assert cmesh.router.n_ports > mesh.router.n_ports

    def test_fewer_hops_than_mesh(self):
        cmesh = make(NocTopology.CMESH_2D)
        mesh = make(NocTopology.MESH_2D)
        assert cmesh.average_hops < mesh.average_hops

    def test_concentration_cuts_router_leakage(self):
        """Fewer (bigger) routers still leak less in total than 4x the
        small ones — the concentration argument."""
        cmesh = make(NocTopology.CMESH_2D)
        mesh = make(NocTopology.MESH_2D)
        cmesh_leak = cmesh.n_routers * cmesh.router.leakage_power
        mesh_leak = mesh.n_routers * mesh.router.leakage_power
        assert cmesh_leak < mesh_leak

    def test_result_positive(self):
        result = make(NocTopology.CMESH_2D).result(CLOCK, NocActivity())
        assert result.total_area > 0


class TestLruBits:
    def test_tag_array_carries_lru_state(self):
        from repro.array import Cache, CacheSpec
        from repro.units import KB

        direct = Cache.build(TECH, CacheSpec(
            name="dm", capacity_bytes=32 * KB, block_bytes=64,
            associativity=1))
        assoc = Cache.build(TECH, CacheSpec(
            name="a8", capacity_bytes=32 * KB, block_bytes=64,
            associativity=8))
        # 8-way: 8 tags + 7 LRU bits per set; direct-mapped: 1 tag, 0 LRU.
        per_way_bits = assoc.spec.tag_bits
        expected = 8 * per_way_bits + 7
        assert assoc.tag_array.spec.width_bits == expected
        assert direct.tag_array.spec.width_bits == direct.spec.tag_bits

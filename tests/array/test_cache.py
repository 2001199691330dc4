"""Unit tests for the cache (tag + data) assembly."""

import pytest

from repro.array import Cache, CacheAccessMode, CacheSpec, PortCounts
from repro.tech import Technology
from repro.units import KB, MB

TECH = Technology(node_nm=65, temperature_k=360)

#: The access-mode ablation's L2, checked beside build()'s 32 KB L1.
L2_1MB = dict(name="l2", capacity=1 * MB, assoc=8)


def build(name="l1", capacity=32 * KB, block=64, assoc=4,
          mode=CacheAccessMode.NORMAL, **kwargs):
    return Cache.build(TECH, CacheSpec(
        name=name, capacity_bytes=capacity, block_bytes=block,
        associativity=assoc, access_mode=mode, **kwargs))


class TestSpecValidation:
    def test_capacity_below_block_rejected(self):
        with pytest.raises(ValueError):
            CacheSpec(name="x", capacity_bytes=32, block_bytes=64,
                      associativity=1)

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(ValueError):
            CacheSpec(name="x", capacity_bytes=1024, block_bytes=48,
                      associativity=1)

    def test_uneven_ways_rejected(self):
        with pytest.raises(ValueError):
            CacheSpec(name="x", capacity_bytes=64 * 3, block_bytes=64,
                      associativity=2)

    def test_tag_bits_math(self):
        spec = CacheSpec(name="x", capacity_bytes=32 * KB, block_bytes=64,
                         associativity=4, physical_address_bits=40)
        # 40 - log2(128 sets) - log2(64) + 2 status = 40 - 7 - 6 + 2 = 29.
        assert spec.tag_bits == 29

    def test_fully_associative_properties(self):
        spec = CacheSpec(name="x", capacity_bytes=4 * KB, block_bytes=64,
                         associativity=0)
        assert spec.is_fully_associative
        assert spec.n_sets == 1
        assert spec.ways == 64


class TestSetAssociative:
    def test_normal_mode_structure(self):
        cache = build()
        assert cache.tag_array is not None
        assert cache.tag_cam is None

    def test_sequential_slower_but_cheaper(self):
        for shape in ({}, L2_1MB):
            normal = build(mode=CacheAccessMode.NORMAL, **shape)
            seq = build(mode=CacheAccessMode.SEQUENTIAL, **shape)
            assert seq.access_time > normal.access_time * 0.99
            assert seq.read_hit_energy < normal.read_hit_energy

    def test_fast_mode_fastest(self):
        for shape in ({}, L2_1MB):
            fast = build(mode=CacheAccessMode.FAST, **shape)
            normal = build(mode=CacheAccessMode.NORMAL, **shape)
            assert fast.access_time <= normal.access_time

    def test_ecc_taxes_area_and_read_energy(self):
        """SECDED check bits in a 4 MB L2: 5-25 % more area, and every
        read pays for the wider words."""
        plain = build(name="l2", capacity=4 * MB, assoc=16,
                      mode=CacheAccessMode.SEQUENTIAL)
        ecc = build(name="l2", capacity=4 * MB, assoc=16,
                    mode=CacheAccessMode.SEQUENTIAL, ecc=True)
        assert 0.05 < ecc.area / plain.area - 1 < 0.25
        assert ecc.read_hit_energy > plain.read_hit_energy

    def test_miss_cheaper_than_hit_in_sequential_mode(self):
        seq = build(mode=CacheAccessMode.SEQUENTIAL)
        assert seq.read_miss_energy < seq.read_hit_energy

    def test_bigger_cache_costs_more(self):
        small = build(capacity=32 * KB)
        big = build(name="l2", capacity=1 * MB, assoc=8,
                    mode=CacheAccessMode.SEQUENTIAL)
        assert big.area > small.area
        assert big.leakage_power > small.leakage_power
        assert big.access_time > small.access_time

    def test_fill_energy_positive(self):
        cache = build()
        assert cache.fill_energy > 0

    def test_extra_tag_bits_grow_tag_array(self):
        plain = build()
        directory = build(extra_tag_bits=32)
        assert directory.tag_array.area > plain.tag_array.area

    def test_multiported_cache_costs_more(self):
        dual = build(ports=PortCounts(read_write=2))
        single = build()
        assert dual.area > single.area


class TestFullyAssociative:
    def test_uses_cam(self):
        cache = build(capacity=4 * KB, assoc=0)
        assert cache.tag_cam is not None
        assert cache.tag_array is None

    def test_costs_positive(self):
        cache = build(capacity=4 * KB, assoc=0)
        assert cache.access_time > 0
        assert cache.read_hit_energy > 0
        assert cache.read_miss_energy > 0
        assert cache.leakage_power > 0
        assert cache.area > 0


class TestRealisticPoints:
    def test_l1_magnitudes(self):
        """32 KB 4-way L1 at 65nm: <1 ns, tens-to-~200 pJ per hit."""
        cache = build()
        assert cache.access_time < 1e-9
        assert 10e-12 < cache.read_hit_energy < 400e-12

    def test_l3_tulsa_class(self):
        """16 MB L3 at 65nm: O(100) mm2 and watts of leakage at 360K."""
        cache = build(name="l3", capacity=16 * MB, assoc=16,
                      mode=CacheAccessMode.SEQUENTIAL)
        assert 50e-6 < cache.area < 300e-6
        assert 1.0 < cache.leakage_power < 30.0

"""Unit tests for ArraySpec and PortCounts validation."""

import math

import pytest

from repro.array import ArraySpec, CellType, PortCounts


class TestPortCounts:
    def test_defaults(self):
        ports = PortCounts()
        assert ports.total == 1
        assert ports.read_capable == 1
        assert ports.write_capable == 1

    def test_zero_ports_rejected(self):
        with pytest.raises(ValueError, match="at least one port"):
            PortCounts(read_write=0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PortCounts(read_write=1, read=-1)

    def test_too_many_ports_rejected(self):
        with pytest.raises(ValueError, match="16 ports"):
            PortCounts(read_write=10, read=8, write=8)

    def test_area_factor_grows_with_ports(self):
        single = PortCounts()
        multi = PortCounts(read_write=1, read=4, write=2)
        assert multi.area_cost_factor > single.area_cost_factor

    def test_single_port_factor_is_unity(self):
        assert PortCounts().area_cost_factor == pytest.approx(1.0)

    def test_read_ports_cheaper_than_write_ports(self):
        reads = PortCounts(read_write=1, read=2)
        writes = PortCounts(read_write=1, write=2)
        assert reads.area_cost_factor < writes.area_cost_factor


class TestArraySpec:
    def test_capacity_math(self):
        spec = ArraySpec(name="x", entries=1024, width_bits=64)
        assert spec.capacity_bits == 65536
        assert spec.capacity_bytes == 8192
        assert spec.address_bits == 10

    def test_banks_partition_entries(self):
        spec = ArraySpec(name="x", entries=1024, width_bits=64, n_banks=4)
        assert spec.entries_per_bank == 256

    def test_non_power_of_two_banks_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            ArraySpec(name="x", entries=64, width_bits=8, n_banks=3)

    @pytest.mark.parametrize("field,value", [
        ("entries", 0), ("width_bits", 0), ("n_banks", 0),
    ])
    def test_bad_dimensions_rejected(self, field, value):
        kwargs = {"name": "x", "entries": 64, "width_bits": 8, "n_banks": 1}
        kwargs[field] = value
        with pytest.raises(ValueError):
            ArraySpec(**kwargs)

    def test_output_bits_bounds(self):
        with pytest.raises(ValueError, match="output_bits"):
            ArraySpec(name="x", entries=64, width_bits=8, output_bits=16)
        spec = ArraySpec(name="x", entries=64, width_bits=32, output_bits=8)
        assert spec.routed_bits == 8

    def test_routed_bits_defaults_to_width(self):
        spec = ArraySpec(name="x", entries=64, width_bits=32)
        assert spec.routed_bits == 32

    def test_bad_timing_target_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ArraySpec(name="x", entries=64, width_bits=8,
                      target_access_time=-1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name", ["target_access_time", "target_cycle_time"])
    def test_non_finite_timing_target_rejected_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ArraySpec(name="x", entries=64, width_bits=8, **{name: value})

    def test_cell_type_enum(self):
        spec = ArraySpec(name="x", entries=16, width_bits=8,
                         cell_type=CellType.DFF)
        assert spec.cell_type is CellType.DFF

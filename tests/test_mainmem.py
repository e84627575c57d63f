"""Unit tests for the value memory."""

import pytest

from repro.common.errors import SimulationError
from repro.memory.mainmem import MainMemory


class TestReadWrite:
    def test_untouched_memory_reads_zero(self):
        assert MainMemory().read(0x1000, 4) == 0

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_roundtrip_all_sizes(self, size):
        memory = MainMemory()
        value = (1 << (8 * size)) - 3
        memory.write(0x2000, size, value)
        assert memory.read(0x2000, size) == value

    def test_little_endian_layout(self):
        memory = MainMemory()
        memory.write(0x100, 4, 0x0A0B0C0D)
        assert memory.read(0x100, 1) == 0x0D
        assert memory.read(0x103, 1) == 0x0A

    def test_write_masks_to_size(self):
        memory = MainMemory()
        memory.write(0x10, 1, 0x1FF)
        assert memory.read(0x10, 1) == 0xFF

    def test_adjacent_writes_do_not_clobber(self):
        memory = MainMemory()
        memory.write(0x40, 4, 0x11111111)
        memory.write(0x44, 4, 0x22222222)
        assert memory.read(0x40, 4) == 0x11111111
        assert memory.read(0x44, 4) == 0x22222222

    def test_negative_value_wraps_via_mask(self):
        memory = MainMemory()
        memory.write(0x8, 4, -1)
        assert memory.read(0x8, 4) == 0xFFFFFFFF


class TestBulkHelpers:
    def test_write_bytes_and_read_bytes(self):
        memory = MainMemory()
        memory.write_bytes(0x3000, b"hello")
        assert memory.read_bytes(0x3000, 5) == b"hello"

    def test_write_bytes_across_page_boundary(self):
        memory = MainMemory()
        memory.write_bytes(4094, b"abcd")
        assert memory.read_bytes(4094, 4) == b"abcd"


class TestErrors:
    def test_rejects_negative_address(self):
        with pytest.raises(SimulationError):
            MainMemory().read(-4, 4)

    def test_rejects_odd_sizes(self):
        with pytest.raises(SimulationError):
            MainMemory().read(0, 3)

    def test_rejects_page_crossing_scalar_access(self):
        with pytest.raises(SimulationError):
            MainMemory().read(4094, 4)

    @pytest.mark.parametrize("addr, size, message", [
        (-4, 4, "negative memory address"),
        (0x100, 3, "unsupported access size 3"),
        (0x100, 0, "unsupported access size 0"),
        (4094, 4, "crosses a page"),
        (4095, 8, "crosses a page"),
    ])
    def test_write_rejects_bad_access_without_allocating(self, addr, size,
                                                          message):
        memory = MainMemory()
        with pytest.raises(SimulationError, match=message):
            memory.write(addr, size, 1)
        assert memory.resident_pages == 0

    @pytest.mark.parametrize("addr, size", [(4088, 8), (4092, 4), (4095, 1),
                                            (4096, 8)])
    def test_accesses_ending_at_a_page_boundary_are_accepted(self, addr,
                                                             size):
        memory = MainMemory()
        memory.write(addr, size, 0x5A)
        assert memory.read(addr, size) == 0x5A
        assert memory.resident_pages == 1


class TestResidency:
    def test_pages_allocated_lazily(self):
        memory = MainMemory()
        assert memory.resident_pages == 0
        memory.read(0x5000, 4)  # reads do not allocate
        assert memory.resident_pages == 0
        memory.write(0x5000, 4, 1)
        assert memory.resident_pages == 1

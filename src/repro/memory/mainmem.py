"""Byte-addressable sparse value memory.

This is the *functional* half of the memory system: it holds the actual
data values the application reads and writes (lock words, barrier
counters, allocator headers, workload data). Timing lives entirely in
:mod:`repro.memory.coherence`; values live here, so the two concerns can
be tested independently.

Values are little-endian unsigned integers of 1/2/4/8 bytes. Memory is
lazily allocated in 4 KiB pages and reads of untouched memory return 0,
which is how the simulated OS zero-fills fresh pages.
"""

from __future__ import annotations

from repro.common.errors import SimulationError

_PAGE_BYTES = 4096
_VALID_SIZES = frozenset({1, 2, 4, 8})


class MainMemory:
    """Sparse, paged, byte-addressable value store."""

    __slots__ = ("_pages",)

    def __init__(self):
        self._pages = {}

    # read/write test the happy path inline (a valid size, a
    # non-negative address, no page crossing) and call _check only for
    # bad input, which raises the same errors.

    def read(self, addr: int, size: int) -> int:
        """Read ``size`` bytes at ``addr`` as a little-endian unsigned int."""
        offset = addr % _PAGE_BYTES
        if size not in _VALID_SIZES or addr < 0 or offset + size > _PAGE_BYTES:
            self._check(addr, size)
        page = self._pages.get(addr // _PAGE_BYTES)
        if page is None:
            return 0
        return int.from_bytes(page[offset:offset + size], "little")

    def write(self, addr: int, size: int, value: int) -> None:
        """Write ``value`` (masked to ``size`` bytes) at ``addr``."""
        offset = addr % _PAGE_BYTES
        if size not in _VALID_SIZES or addr < 0 or offset + size > _PAGE_BYTES:
            self._check(addr, size)
        page = self._pages.get(addr // _PAGE_BYTES)
        if page is None:
            page = self._pages[addr // _PAGE_BYTES] = bytearray(_PAGE_BYTES)
        page[offset:offset + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Bulk write (used by the simulated kernel to fill read() buffers)."""
        for i, byte in enumerate(data):
            self.write(addr + i, 1, byte)

    def read_bytes(self, addr: int, length: int) -> bytes:
        return bytes(self.read(addr + i, 1) for i in range(length))

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    @staticmethod
    def _check(addr: int, size: int) -> None:
        if addr < 0:
            raise SimulationError(f"negative memory address {addr:#x}")
        if size not in _VALID_SIZES:
            raise SimulationError(f"unsupported access size {size}")
        if addr // _PAGE_BYTES != (addr + size - 1) // _PAGE_BYTES:
            raise SimulationError(
                f"access crosses a page boundary: addr={addr:#x} size={size}"
            )

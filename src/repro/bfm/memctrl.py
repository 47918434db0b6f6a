"""The memory controller of the BFM (external RAM and code memory).

Models the MOVX-style external data memory of an 8051 system: byte-wide
reads and writes with their cycle budgets, backed by a sparse dictionary so
arbitrarily large address spaces cost nothing until touched.
"""

from __future__ import annotations

from typing import Dict

from repro.bfm.driver import BusDriver

#: Size of the external data memory: the 8051's 64 KiB MOVX address space.
XRAM_SIZE = 0x10000


class MemoryController:
    """External data memory (XRAM) plus read-only code memory."""

    def __init__(self, driver: BusDriver):
        self.driver = driver
        self.budgets = driver.budgets
        self._xram: Dict[int, int] = {}
        self._code: Dict[int, int] = {}
        self.read_count = 0
        self.write_count = 0

    # ------------------------------------------------------------------
    # Software-visible BFM calls (generators)
    # ------------------------------------------------------------------
    def read_xram(self, address: int):
        """Read one byte of external RAM."""
        self._check_address(address)
        self.read_count += 1
        value = yield from self.driver.bus_read(
            address,
            lambda: self._xram.get(address, 0),
            cycles=self.budgets.xram_read,
            label="bfm:xram_read",
        )
        return value

    def write_xram(self, address: int, value: int):
        """Write one byte of external RAM."""
        self._check_address(address)
        self.write_count += 1
        yield from self.driver.bus_write(
            address,
            value & 0xFF,
            lambda v: self._xram.__setitem__(address, v),
            cycles=self.budgets.xram_write,
            label="bfm:xram_write",
        )

    def read_block(self, address: int, length: int):
        """Read *length* consecutive bytes (one bus transaction per byte)."""
        data = []
        for offset in range(length):
            value = yield from self.read_xram(address + offset)
            data.append(value)
        return data

    def write_block(self, address: int, data):
        """Write consecutive bytes starting at *address*."""
        for offset, value in enumerate(data):
            yield from self.write_xram(address + offset, value)

    def read_code(self, address: int):
        """Read one byte of code memory (cheaper than XRAM)."""
        value = yield from self.driver.bus_read(
            address,
            lambda: self._code.get(address, 0),
            cycles=self.budgets.code_read,
            label="bfm:code_read",
        )
        return value

    # ------------------------------------------------------------------
    # Backdoor access (test benches and loaders; no simulated cost)
    # ------------------------------------------------------------------
    def load_code(self, address: int, data) -> None:
        """Load code memory contents without consuming simulated time."""
        for offset, value in enumerate(data):
            self._code[address + offset] = value & 0xFF

    def peek(self, address: int) -> int:
        """Read XRAM without a bus transaction (debug backdoor)."""
        return self._xram.get(address, 0)

    def poke(self, address: int, value: int) -> None:
        """Write XRAM without a bus transaction (debug backdoor)."""
        self._check_address(address)
        self._xram[address] = value & 0xFF

    def _check_address(self, address: int) -> None:
        if not 0 <= address < XRAM_SIZE:
            raise ValueError(f"XRAM address 0x{address:X} outside 0..0x{XRAM_SIZE:X}")

"""Serial I/O (UART-style) of the BFM.

Byte-oriented transmit/receive buffers.  Receiving hardware (a test bench or
a peripheral model) injects bytes with :meth:`SerialIO.inject_rx_byte`, which
optionally raises the serial interrupt line so the kernel's ISR can drain the
buffer.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bfm.driver import BusDriver
from repro.bfm.intc import InterruptController

#: Conventional serial interrupt line number on the 8051 (TI/RI).
SERIAL_INTERRUPT_LINE = 4

#: Bytes the receive FIFO holds; an injection into a full FIFO is an overrun.
SERIAL_FIFO_DEPTH = 16


class SerialIO:
    """A transmit/receive byte channel with bounded FIFOs."""

    def __init__(self, driver: BusDriver, intc: Optional[InterruptController] = None):
        self.driver = driver
        self.intc = intc
        self.budgets = driver.budgets
        self.tx_log: List[int] = []
        self._rx_fifo: List[int] = []
        self.overrun_count = 0
        self.sent_count = 0
        self.received_count = 0

    # ------------------------------------------------------------------
    # Software-visible BFM calls (generators)
    # ------------------------------------------------------------------
    def send_byte(self, value: int):
        """Transmit one byte (cycle budget covers the shift time)."""
        yield from self.driver.bus_write(
            0xF0,
            value & 0xFF,
            lambda v: self.tx_log.append(v),
            cycles=self.budgets.serial_send_byte,
            label="bfm:serial_send_byte",
        )
        self.sent_count += 1

    def send_string(self, text: str):
        """Transmit a string byte by byte."""
        for char in text:
            yield from self.send_byte(ord(char))

    def receive_byte(self):
        """Read one received byte (or None if the FIFO is empty)."""
        value = yield from self.driver.bus_read(
            0xF1,
            lambda: self._rx_fifo[0] if self._rx_fifo else -1,
            cycles=self.budgets.serial_receive_byte,
            label="bfm:serial_receive_byte",
        )
        if value < 0:
            return None
        self._rx_fifo.pop(0)
        self.received_count += 1
        return value

    def rx_available(self) -> int:
        """Number of bytes waiting in the receive FIFO (no simulated cost)."""
        return len(self._rx_fifo)

    # ------------------------------------------------------------------
    # Hardware-side injection (test benches, external devices)
    # ------------------------------------------------------------------
    def inject_rx_byte(self, value: int, raise_interrupt: bool = True) -> bool:
        """Deliver a byte from the external world into the receive FIFO."""
        if len(self._rx_fifo) >= SERIAL_FIFO_DEPTH:
            self.overrun_count += 1
            return False
        self._rx_fifo.append(value & 0xFF)
        if raise_interrupt and self.intc is not None:
            self.intc.raise_line(SERIAL_INTERRUPT_LINE)
        return True

    def transmitted_text(self) -> str:
        """The transmit log decoded as text (for assertions in tests)."""
        return "".join(chr(b) for b in self.tx_log)

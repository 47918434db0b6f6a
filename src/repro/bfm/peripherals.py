"""Peripheral devices attached to the parallel I/O: LCD, keypad, SSD.

These are the hardware halves of the paper's "ASIC components ... wrapped in
GUI widgets to give the look & feel of a virtual system prototype".  The GUI
halves live in :mod:`repro.app.widgets`; the devices here only keep the
hardware-visible state (frame buffer, key FIFO, digit latches) and raise
interrupts where the case study needs them (key presses).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.bfm.intc import InterruptController

#: Conventional external interrupt line used by the keypad (INT0).
KEYPAD_INTERRUPT_LINE = 0

#: Command byte written to the LCD control port to clear the display.
LCD_CLEAR_COMMAND = 0x01


class LCDDevice:
    """A character LCD with a small frame buffer.

    Software drives it through two ports: a *control* port (commands such as
    clear / set cursor) and a *data* port (character bytes at the cursor).
    In the video-game case study only the data path matters; commands are
    modelled for completeness.
    """

    def __init__(self, columns: int = 16, rows: int = 2):
        self.columns = columns
        self.rows = rows
        self.frame_buffer: List[List[int]] = [[0x20] * columns for _ in range(rows)]
        self.cursor = 0
        self.write_count = 0
        self.clear_count = 0
        #: Observers called after every visible update: fn(device).
        self.update_hooks: List[Callable[["LCDDevice"], None]] = []

    # -- PortDevice interface ------------------------------------------------
    def on_port_write(self, port: int, value: int) -> None:
        self.write_count += 1
        self.write_data(value)
        self._notify()

    def on_port_read(self, port: int) -> Optional[int]:
        row, column = divmod(self.cursor % (self.rows * self.columns), self.columns)
        return self.frame_buffer[row][column]

    # -- device behaviour -------------------------------------------------------
    def write_command(self, value: int) -> None:
        """Apply a control command (clear display / set cursor address)."""
        if value == LCD_CLEAR_COMMAND:
            self.clear()
        elif value & 0x80:
            self.cursor = value & 0x7F
        self._notify()

    def write_data(self, value: int) -> None:
        """Write one character at the cursor and advance it."""
        position = self.cursor % (self.rows * self.columns)
        row, column = divmod(position, self.columns)
        self.frame_buffer[row][column] = value & 0xFF
        self.cursor = (self.cursor + 1) % (self.rows * self.columns)

    def clear(self) -> None:
        """Blank the display."""
        self.clear_count += 1
        self.frame_buffer = [[0x20] * self.columns for _ in range(self.rows)]
        self.cursor = 0

    def text(self) -> List[str]:
        """The display contents as printable strings."""
        return [
            "".join(chr(c) if 32 <= c < 127 else "." for c in row)
            for row in self.frame_buffer
        ]

    def _notify(self) -> None:
        for hook in self.update_hooks:
            hook(self)


class KeypadDevice:
    """A matrix keypad delivering key codes through a FIFO plus an interrupt."""

    def __init__(self, intc: Optional[InterruptController] = None,
                 interrupt_line: int = KEYPAD_INTERRUPT_LINE, fifo_depth: int = 8):
        self.intc = intc
        self.interrupt_line = interrupt_line
        self.fifo_depth = fifo_depth
        self._fifo: List[int] = []
        self.pressed_count = 0
        self.dropped_count = 0
        self.read_count = 0

    # -- PortDevice interface ------------------------------------------------
    def on_port_write(self, port: int, value: int) -> None:
        # Writing to the keypad port acknowledges/clears the oldest key.
        if self._fifo:
            self._fifo.pop(0)

    def on_port_read(self, port: int) -> Optional[int]:
        self.read_count += 1
        return self._fifo[0] if self._fifo else 0

    # -- external world ---------------------------------------------------------
    def press_key(self, key_code: int) -> bool:
        """Simulate a user pressing a key (raises the keypad interrupt)."""
        self.pressed_count += 1
        if len(self._fifo) >= self.fifo_depth:
            self.dropped_count += 1
            return False
        self._fifo.append(key_code & 0xFF)
        if self.intc is not None:
            self.intc.raise_line(self.interrupt_line)
        return True

    def pending_keys(self) -> List[int]:
        """Key codes waiting to be read."""
        return list(self._fifo)


class SevenSegmentDevice:
    """A bank of seven-segment display digits (the paper's SSD peripheral)."""

    def __init__(self, digit_count: int = 4):
        self.digit_count = digit_count
        self.digits: List[int] = [0] * digit_count
        self._selected = 0
        self.write_count = 0
        self.update_hooks: List[Callable[["SevenSegmentDevice"], None]] = []

    # -- PortDevice interface ------------------------------------------------
    def on_port_write(self, port: int, value: int) -> None:
        """Multiplexed write: high nibble selects the digit, low nibble the value."""
        self.write_count += 1
        self._selected = (value >> 4) % self.digit_count
        self.digits[self._selected] = value & 0x0F
        for hook in self.update_hooks:
            hook(self)

    def on_port_read(self, port: int) -> Optional[int]:
        return (self._selected << 4) | self.digits[self._selected]

    # -- convenience -------------------------------------------------------------
    def value(self) -> int:
        """The displayed digits interpreted as a decimal number."""
        number = 0
        for digit in reversed(self.digits):
            number = number * 10 + digit
        return number

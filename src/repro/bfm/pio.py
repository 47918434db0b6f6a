"""Multiplexed parallel I/O of the BFM.

"...and Multiplexed Parallel I/O interface to which several external
peripheral devices are connected" (section 5.1).  The interface exposes a
small set of 8-bit ports; peripheral devices (LCD, keypad, seven-segment
display) attach to a port and observe writes / provide read values.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol

from repro.bfm.driver import BusDriver
from repro.sysc.signal import Signal

#: Number of 8-bit ports in the bank.
PORT_COUNT = 4


class PortDevice(Protocol):
    """What the PIO expects from an attached peripheral device."""

    def on_port_write(self, port: int, value: int) -> None:
        """Called when software writes *value* to *port*."""

    def on_port_read(self, port: int) -> Optional[int]:
        """Value the device drives on *port* reads (None = not driving)."""


class ParallelIO:
    """A bank of 8-bit ports with attached peripheral devices."""

    def __init__(self, driver: BusDriver, name: str = "pio"):
        self.driver = driver
        self.budgets = driver.budgets
        self.name = name
        simulator = driver.api.simulator
        self.port_signals: List[Signal[int]] = [
            Signal(f"{name}.p{index}", 0, simulator) for index in range(PORT_COUNT)
        ]
        self._latches: List[int] = [0] * PORT_COUNT
        self._devices: Dict[int, List[PortDevice]] = {}
        self.write_counts: Dict[int, int] = {index: 0 for index in range(PORT_COUNT)}
        self.read_counts: Dict[int, int] = {index: 0 for index in range(PORT_COUNT)}

    # ------------------------------------------------------------------
    # Device attachment
    # ------------------------------------------------------------------
    def attach(self, port: int, device: PortDevice) -> None:
        """Attach a peripheral device to *port*."""
        self._check_port(port)
        self._devices.setdefault(port, []).append(device)

    def devices_on(self, port: int) -> List[PortDevice]:
        """Devices attached to *port*."""
        return list(self._devices.get(port, []))

    # ------------------------------------------------------------------
    # Software-visible BFM calls (generators)
    # ------------------------------------------------------------------
    def write_port(self, port: int, value: int):
        """Write an 8-bit value to a port (devices see the new value)."""
        self._check_port(port)
        self.write_counts[port] += 1

        def apply(v: int) -> None:
            self._latches[port] = v
            self.port_signals[port].write(v)
            for device in self._devices.get(port, []):
                device.on_port_write(port, v)

        yield from self.driver.bus_write(
            0x80 + port,
            value & 0xFF,
            apply,
            cycles=self.budgets.port_write,
            label="bfm:port_write",
        )

    def read_port(self, port: int):
        """Read an 8-bit value from a port (device-driven if attached)."""
        self._check_port(port)
        self.read_counts[port] += 1

        def provide() -> int:
            for device in self._devices.get(port, []):
                value = device.on_port_read(port)
                if value is not None:
                    return value & 0xFF
            return self._latches[port]

        value = yield from self.driver.bus_read(
            0x80 + port,
            provide,
            cycles=self.budgets.port_read,
            label="bfm:port_read",
        )
        return value

    # ------------------------------------------------------------------
    # Debug backdoor
    # ------------------------------------------------------------------
    def latch_value(self, port: int) -> int:
        """The last written value of *port* (no simulated cost)."""
        self._check_port(port)
        return self._latches[port]

    def _check_port(self, port: int) -> None:
        if not 0 <= port < PORT_COUNT:
            raise ValueError(f"port {port} outside [0, {PORT_COUNT})")

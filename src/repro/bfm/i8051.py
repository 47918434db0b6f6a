"""The assembled i8051 bus functional model (Fig. 5's BFM block).

:class:`I8051BFM` wires together the real-time clock, the bus driver, the
memory controller, the interrupt controller, the serial I/O and the
multiplexed parallel I/O, attaches the case-study peripherals (LCD on port 0,
keypad on port 1, seven-segment display on port 2) and exposes everything a
co-simulation framework needs: the tick signal for the kernel, the interrupt
controller to attach to Interrupt Dispatch, and the signals to probe in a
waveform trace.
"""

from __future__ import annotations

from typing import Optional

from repro.bfm.driver import BusDriver
from repro.bfm.intc import InterruptController
from repro.bfm.memctrl import MemoryController
from repro.bfm.peripherals import KeypadDevice, LCDDevice, SevenSegmentDevice
from repro.bfm.pio import ParallelIO
from repro.bfm.rtc import RealTimeClock
from repro.bfm.serial import SerialIO
from repro.core.simapi import SimApi
from repro.sysc.module import SCModule
from repro.sysc.time import SimTime
from repro.sysc.trace import TraceFile

#: Port assignments of the case-study peripherals.
LCD_PORT = 0
KEYPAD_PORT = 1
SSD_PORT = 2
SPARE_PORT = 3

#: The controllers an assembled i8051 BFM wires together (Fig. 5), in the
#: order they are constructed; ``repro describe`` reports these as the
#: i8051 platform's controllers.
BFM_CONTROLLERS = (
    "rtc", "bus_driver", "memory_controller", "interrupt_controller",
    "serial_io", "parallel_io",
)

#: The case-study peripherals attached to the parallel ports.
BFM_PERIPHERALS = ("lcd", "keypad", "seven_segment_display")


class I8051BFM(SCModule):
    """Cycle-budgeted bus functional model of an i8051-class platform."""

    def __init__(
        self,
        api: SimApi,
        name: str = "i8051",
        rtc_resolution: "SimTime | int" = SimTime.ms(1),
    ):
        super().__init__(name, api.simulator)
        self.api = api

        self.rtc = RealTimeClock(api.simulator, rtc_resolution, name=f"{name}.rtc")
        self.driver = BusDriver(api, name=f"{name}.bus")
        self.memory = MemoryController(self.driver)
        self.intc = InterruptController(api.simulator, name=f"{name}.intc")
        self.serial = SerialIO(self.driver, self.intc)
        self.pio = ParallelIO(self.driver, name=f"{name}.pio")

        self.lcd = LCDDevice()
        self.keypad = KeypadDevice(self.intc)
        self.ssd = SevenSegmentDevice()
        self.pio.attach(LCD_PORT, self.lcd)
        self.pio.attach(KEYPAD_PORT, self.keypad)
        self.pio.attach(SSD_PORT, self.ssd)

    # ------------------------------------------------------------------
    # Integration points
    # ------------------------------------------------------------------
    @property
    def tick_signal(self):
        """The RTC tick signal the kernel's Thread Dispatch listens to."""
        return self.rtc.tick_signal

    def attach_trace(self, trace: Optional[TraceFile] = None) -> TraceFile:
        """Probe the bus and port signals in a waveform trace (Fig. 4)."""
        trace = trace if trace is not None else TraceFile(f"{self.name}.waves")
        for signal in self.driver.signals():
            trace.trace(signal)
        trace.trace(self.intc.irq_signal)
        for signal in self.pio.port_signals:
            trace.trace(signal)
        return trace

    def access_statistics(self) -> dict:
        """Counters summarising BFM activity (used by the speed benchmark)."""
        return {
            "bus_accesses": self.driver.access_count,
            "bus_reads": self.driver.read_count,
            "bus_writes": self.driver.write_count,
            "xram_reads": self.memory.read_count,
            "xram_writes": self.memory.write_count,
            "port_writes": dict(self.pio.write_counts),
            "port_reads": dict(self.pio.read_counts),
            "serial_sent": self.serial.sent_count,
            "interrupts_raised": self.intc.raised_count,
            "rtc_ticks": self.rtc.tick_count,
        }

"""The real-time clock of the BFM.

"Real Time Clock driving the kernel Central Module with default timing
resolution = 1 ms" (section 5.1).  The RTC owns the tick signal that the
kernel's Thread Dispatch process is sensitive to.  Its tick count is the
clock's own posedge count: no process resumes just to count ticks.
"""

from __future__ import annotations

from repro.sysc.clock import Clock
from repro.sysc.kernel import Simulator
from repro.sysc.time import SimTime


class RealTimeClock:
    """A periodic tick generator with a tick counter."""

    def __init__(self, simulator: Simulator,
                 resolution: "SimTime | int" = SimTime.ms(1), name: str = "rtc"):
        self.simulator = simulator
        self.resolution = SimTime.coerce(resolution)
        self.name = name
        self.tick_signal = Clock(f"{name}.tick", self.resolution, simulator=simulator)

    @property
    def tick_count(self) -> int:
        """Rising edges of the tick signal so far."""
        return self.tick_signal.posedge_count

    def stop(self) -> None:
        """Stop the tick signal (ends a bounded co-simulation cleanly)."""
        self.tick_signal.stop()

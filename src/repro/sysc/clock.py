"""Periodic clocks.

:class:`Clock` is a self-toggling boolean :class:`~repro.sysc.signal.Signal`.
The paper's BFM contains a *Real Time Clock* with a default resolution of
1 ms that drives the kernel central module; that RTC is built on this class.
"""

from __future__ import annotations

from repro.sysc.kernel import Simulator
from repro.sysc.signal import Signal
from repro.sysc.time import SimTime


class Clock(Signal[bool]):
    """A boolean signal toggling with a fixed period.

    The clock starts low and produces its first rising edge after
    ``period * duty_cycle`` unless ``start_high`` is set, mirroring
    ``sc_clock``'s posedge-first behaviour closely enough for the models in
    this repository (which are all sensitive to the posedge only).
    """

    def __init__(
        self,
        name: str,
        period: "SimTime | int",
        duty_cycle: float = 0.5,
        start_high: bool = True,
        *,
        simulator: Simulator,
    ):
        if not 0.0 < duty_cycle < 1.0:
            raise ValueError("duty_cycle must be strictly between 0 and 1")
        super().__init__(name, initial=False, simulator=simulator)
        self.period = SimTime.coerce(period)
        if self.period.nanoseconds <= 0:
            raise ValueError("clock period must be positive")
        self.duty_cycle = duty_cycle
        self._high_time = SimTime(int(self.period.nanoseconds * duty_cycle))
        self._low_time = self.period - self._high_time
        # Integer phase durations for the toggle hot path (the kernel's
        # schedule_callback_ns fast lane — no SimTime coercion per edge).
        self._high_ns = self._high_time.nanoseconds
        self._low_ns = self._low_time.nanoseconds
        self._running = True
        self.posedge_count = 0
        if start_high:
            simulator.schedule_callback_ns(0, self._go_high)
        else:
            simulator.schedule_callback_ns(self._low_ns, self._go_high)

    def stop(self) -> None:
        """Stop toggling (used to end a bounded co-simulation cleanly)."""
        self._running = False

    def _go_high(self) -> None:
        if not self._running:
            return
        self.posedge_count += 1
        self.write(True)
        self._simulator.schedule_callback_ns(self._high_ns, self._go_low)

    def _go_low(self) -> None:
        if not self._running:
            return
        self.write(False)
        self._simulator.schedule_callback_ns(self._low_ns, self._go_high)

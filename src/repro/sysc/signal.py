"""Signals with SystemC ``sc_signal`` request/update semantics.

A signal write does not take effect immediately; it is applied in the update
phase of the current delta cycle and the *value-changed* event is notified as
a delta notification.  This keeps the hardware side of the co-simulation
(BFM, interrupt lines, reset, system tick) race-free, exactly like the
SystemC models the paper plugs SIM_API into.
"""

from __future__ import annotations

from typing import Generic, TypeVar

from repro.sysc.event import SCEvent
from repro.sysc.kernel import Simulator

T = TypeVar("T")


class Signal(Generic[T]):
    """A single-driver signal with deferred (delta-cycle) update."""

    def __init__(self, name: str, initial: T, simulator: Simulator):
        self.name = name
        self._simulator = simulator
        self._current: T = initial
        self._next: T = initial
        self._update_pending = False
        self.value_changed_event = SCEvent(f"{name}.value_changed", self._simulator)
        self.posedge_event = SCEvent(f"{name}.posedge", self._simulator)
        self.negedge_event = SCEvent(f"{name}.negedge", self._simulator)
        self.write_count = 0
        self.change_count = 0
        # Cached `signal` topic of the owning simulator's observability bus:
        # the settle path publishes with a single enabled-flag check.
        self._obs_signal = self._simulator.obs.topic("signal")

    # -- value access -------------------------------------------------------
    def read(self) -> T:
        """Current (settled) value of the signal."""
        return self._current

    def write(self, value: T) -> None:
        """Request a new value; applied at the next update phase."""
        self.write_count += 1
        self._next = value
        if not self._update_pending:
            self._update_pending = True
            self._simulator.request_update(self._update)

    def _update(self) -> None:
        self._update_pending = False
        if self._next == self._current:
            return
        old, new = self._current, self._next
        self._current = new
        self.change_count += 1
        self.value_changed_event.notify_delta()
        try:
            old_level, new_level = bool(old), bool(new)
        except Exception:  # pragma: no cover - exotic value types
            old_level = new_level = False  # no edge
        if new_level and not old_level:
            self.posedge_event.notify_delta()
        elif old_level and not new_level:
            self.negedge_event.notify_delta()
        topic = self._obs_signal
        if topic.enabled:
            # `_signal` carries the publishing object for sinks that filter
            # by identity (names need not be unique); JSON output drops it.
            topic.emit(
                "change", self._simulator._now_ns,
                signal=self.name, old=old, new=new, _signal=self,
            )

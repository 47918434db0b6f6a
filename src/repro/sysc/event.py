"""SystemC-style events.

An :class:`SCEvent` is the primitive synchronization object of the substrate.
Processes wait on events (dynamic sensitivity) and anything may *notify* an
event:

* ``notify()`` — immediate notification: waiting processes become runnable in
  the current evaluation phase,
* ``notify_delta()`` — delta notification: waiting processes run in the next
  delta cycle at the same simulation time,
* ``notify_after(t)`` — timed notification: waiting processes run after the
  given simulation-time delay.

Only a single pending timed/delta notification exists per event, and an
earlier notification overrides a later one, matching SystemC semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.sysc.time import SimTime, ZERO_TIME

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sysc.kernel import Simulator
    from repro.sysc.process import ProcessHandle


class SCEvent:
    """An event that processes can wait on and that models can notify."""

    _counter = 0

    def __init__(self, name: str, simulator: "Simulator"):
        SCEvent._counter += 1
        self.name = name or f"event_{SCEvent._counter}"
        self._simulator = simulator
        self._waiting: "list[ProcessHandle]" = []
        # Generation counter identifying the currently pending notification
        # so a cancelled/overridden notification can be recognised when it
        # fires; integers instead of per-notify token objects keep the
        # signal-settle hot path allocation-free.
        self._notify_generation = 0
        self._pending_token: Optional[int] = None
        self._pending_time: Optional[SimTime] = None
        self.notify_count = 0

    # -- sensitivity ------------------------------------------------------
    def add_waiter(self, process: "ProcessHandle") -> None:
        """Register *process* as dynamically sensitive to this event."""
        if process not in self._waiting:
            self._waiting.append(process)

    def remove_waiter(self, process: "ProcessHandle") -> None:
        """Remove *process* from the waiter list if present."""
        if process in self._waiting:
            self._waiting.remove(process)

    # -- notification -----------------------------------------------------
    def notify(self) -> None:
        """Immediate notification: wake waiters in the current evaluation."""
        self._cancel_pending()
        self.notify_count += 1
        self._simulator._trigger_event(self, immediate=True)

    def notify_delta(self) -> None:
        """Delta notification: wake waiters one delta cycle later."""
        # An immediate notification cannot be overridden; a delta notification
        # overrides any pending timed notification.
        if self._pending_time is not None and self._pending_time.nanoseconds > 0:
            self._cancel_pending()
        if self._pending_token is not None:
            return
        self._notify_generation = token = self._notify_generation + 1
        self._pending_token = token
        self._pending_time = ZERO_TIME
        self._simulator._schedule_event_notification(self, ZERO_TIME, token)

    def notify_after(self, delay: "SimTime | int") -> None:
        """Timed notification after *delay* (earlier notification wins)."""
        delay = SimTime.coerce(delay)
        if delay.nanoseconds <= 0:
            self.notify_delta()
            return
        if self._pending_token is not None:
            assert self._pending_time is not None
            if self._pending_time <= delay:
                return
            self._cancel_pending()
        self._notify_generation = token = self._notify_generation + 1
        self._pending_token = token
        self._pending_time = delay
        self._simulator._schedule_event_notification(self, delay, token)

    def cancel(self) -> None:
        """Cancel any pending delta/timed notification."""
        self._cancel_pending()

    # -- kernel hooks -----------------------------------------------------
    def _cancel_pending(self) -> None:
        self._pending_token = None
        self._pending_time = None

    def _fire(self, token: int, _unused: object = None) -> bool:
        """Called by the kernel when a scheduled notification matures.

        Accepts (and ignores) the second activation-entry payload slot so it
        can sit directly in a ``(func, a, b)`` kernel entry.  Returns ``True``
        if the notification was still valid (not cancelled nor overridden)
        and waiters were woken.
        """
        if token != self._pending_token:
            return False
        self._pending_token = None
        self._pending_time = None
        self.notify_count += 1
        self._simulator._trigger_event(self, immediate=False)
        return True

    def _take_waiters(self) -> "list[ProcessHandle]":
        waiters = self._waiting
        self._waiting = []
        return waiters

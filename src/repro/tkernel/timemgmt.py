"""System time and the timer queue.

The paper's kernel dynamics (Fig. 3): *"The timer handler updates the system
clock, checks for cyclic, alarm events, or task resuming events in the timer
queue, it then calls simulation library APIs to start running a task/handler
or preempt the running task..."*

:class:`TimeManager` is that timer queue.  The kernel's Thread Dispatch
process calls :meth:`TimeManager.process_due` on every system tick; due
entries run their actions (waking a task, activating a cyclic/alarm handler).
System time is kept in milliseconds and can be adjusted with ``tk_set_tim``
without disturbing relative timeouts (which are stored against simulation
time, not calendar time).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.sysc.time import SimTime


class TimerHandle:
    """Handle for one scheduled timer action (cancellable)."""

    __slots__ = ("due", "sequence", "action", "cancelled", "fired", "label")

    def __init__(self, due: SimTime, sequence: int, action: Callable[[], None],
                 label: str = ""):
        self.due = due
        self.sequence = sequence
        self.action = action
        self.cancelled = False
        self.fired = False
        self.label = label

    def cancel(self) -> None:
        """Prevent the action from running (no-op if already fired)."""
        self.cancelled = True


class TimeManager:
    """The kernel's timer queue plus the settable system time."""

    def __init__(self, tick: "SimTime | int" = SimTime.ms(1)):
        self.tick = SimTime.coerce(tick)
        self._sequence = itertools.count()
        self._queue: List[Tuple[int, int, TimerHandle]] = []
        #: Offset added to operation time to obtain calendar system time (ms).
        self._system_time_offset_ms = 0
        #: Operation time: milliseconds since boot, advanced by the tick handler.
        self.operation_time_ms = 0
        self.tick_count = 0
        self.processed_count = 0

    # -- system time --------------------------------------------------------
    def set_system_time(self, time_ms: int) -> None:
        """Set the calendar system time (tk_set_tim)."""
        self._system_time_offset_ms = time_ms - self.operation_time_ms

    def get_system_time(self) -> int:
        """Current calendar system time in milliseconds (tk_get_tim)."""
        return self.operation_time_ms + self._system_time_offset_ms

    def get_operation_time(self) -> int:
        """Milliseconds since boot (tk_get_otm)."""
        return self.operation_time_ms

    # -- timer queue -----------------------------------------------------------
    def after(
        self, now: SimTime, delay: "SimTime | int", action: Callable[[], None], label: str = ""
    ) -> TimerHandle:
        """Schedule *action* to run *delay* after *now* (at a tick boundary)."""
        delay = SimTime.coerce(delay)
        if delay.nanoseconds < 0:
            raise ValueError("timer delay cannot be negative")
        handle = TimerHandle(now + delay, next(self._sequence), action, label=label)
        heapq.heappush(self._queue, (handle.due.to_ns(), handle.sequence, handle))
        return handle

    def after_ms(
        self, now: SimTime, delay_ms: int, action: Callable[[], None], label: str = ""
    ) -> TimerHandle:
        """Schedule *action* after *delay_ms* milliseconds."""
        return self.after(now, SimTime.ms(delay_ms), action, label=label)

    def cancel(self, handle: Optional[TimerHandle]) -> None:
        """Cancel a previously scheduled action."""
        if handle is not None:
            handle.cancel()

    # -- tick processing -----------------------------------------------------
    def advance_tick(self) -> None:
        """Advance operation time by one tick (called by the tick handler)."""
        self.tick_count += 1
        self.operation_time_ms += max(1, int(self.tick.to_ms()))

    def process_due(self, now: SimTime) -> int:
        """Run every action whose due time has been reached; returns the count."""
        fired = 0
        now_ns = now.nanoseconds
        while self._queue and self._queue[0][0] <= now_ns:
            _, _, handle = heapq.heappop(self._queue)
            if handle.cancelled or handle.fired:
                continue
            handle.fired = True
            fired += 1
            self.processed_count += 1
            handle.action()
        return fired

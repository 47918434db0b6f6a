"""SC_THREAD-style processes.

A process body is a Python generator function.  The generator *yields* wait
requests back to the simulator, which suspends the process until the request
is satisfied and then resumes it.  This mirrors how an ``SC_THREAD`` calls
``wait(...)`` in SystemC: the coroutine keeps its local state across waits,
which is exactly the property the paper's T-THREAD model needs in order to
model task bodies that sleep, get preempted and resume mid-execution.

Wait request kinds
------------------

``Wait(time)``
    Suspend for a simulated duration (``wait(t)``).
``WaitEvent(event)``
    Suspend until an event is notified (``wait(e)`` — dynamic sensitivity).
``WaitEventTimeout(event, time)``
    Suspend until the event is notified or the timeout elapses
    (``wait(t, e)``); the resume value tells the process which happened.
``WaitDelta()``
    Suspend for one delta cycle (``wait(SC_ZERO_TIME)``).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Optional

from repro.sysc.event import SCEvent
from repro.sysc.time import SimTime

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sysc.kernel import Simulator


class ProcessState(enum.Enum):
    """Lifecycle states of a simulated process."""

    CREATED = "created"
    READY = "ready"
    RUNNING = "running"
    WAITING = "waiting"
    TERMINATED = "terminated"


class Wait:
    """Wait for a simulated duration."""

    __slots__ = ("duration",)

    def __init__(self, duration: "SimTime | int | float"):
        if type(duration) is not SimTime:
            duration = SimTime.coerce(duration)
        self.duration = duration


class WaitEvent:
    """Wait for a single event (dynamic sensitivity)."""

    __slots__ = ("event",)

    def __init__(self, event: SCEvent):
        self.event = event


class WaitEventTimeout:
    """Wait for an event with a timeout."""

    __slots__ = ("event", "timeout")

    def __init__(self, event: SCEvent, timeout: "SimTime | int | float"):
        if type(timeout) is not SimTime:
            timeout = SimTime.coerce(timeout)
        self.event = event
        self.timeout = timeout


class WaitDelta:
    """Wait for one delta cycle."""

    __slots__ = ()


class ResumeReason(enum.Enum):
    """Why a waiting process was resumed."""

    TIMEOUT = "timeout"
    EVENT = "event"
    DELTA = "delta"
    TIME = "time"
    START = "start"


ProcessBody = Generator[object, ResumeReason, None]


class ProcessHandle:
    """Book-keeping for one SC_THREAD-style process.

    Slotted: handles are touched on every wake/resume of the kernel's hot
    loop, so attribute access must not go through an instance ``__dict__``.
    Equality and hashing are object identity, inherited from ``object``:
    waiter-list membership tests and removals then compare in C instead of
    calling a Python ``__eq__`` per element.
    """

    __slots__ = (
        "name", "factory", "simulator", "static_sensitivity",
        "dont_initialize", "state", "generator", "waiting_on",
        "_timeout_token", "_resume_reason", "resume_count",
        "terminated_event", "_send",
    )

    def __init__(
        self,
        name: str,
        factory: Callable[[], ProcessBody],
        simulator: "Simulator",
        static_sensitivity: "tuple[SCEvent, ...]" = (),
        dont_initialize: bool = False,
    ):
        self.name = name
        self.factory = factory
        self.simulator = simulator
        self.static_sensitivity = static_sensitivity
        self.dont_initialize = dont_initialize
        self.state = ProcessState.CREATED
        self.generator: Optional[ProcessBody] = None
        # What a wake must detach the process from: the event of its wait,
        # or the kernel's marker for a static wait on several events.
        self.waiting_on: Optional[SCEvent] = None
        # Generation counter identifying the pending wait-timeout; bumping
        # it invalidates the timeout without allocating per-wait tokens.
        self._timeout_token = 0
        self._resume_reason = ResumeReason.START
        self.resume_count = 0
        self.terminated_event = SCEvent(f"{name}.terminated", simulator=simulator)
        # Bound `generator.send`, cached at start() so every resume skips
        # the generator attribute walk and method-object creation.
        self._send: Optional[Callable[[object], object]] = None

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Instantiate the generator; called by the simulator at elaboration."""
        if self.generator is None:
            self.generator = self.factory()
            self._send = self.generator.send

    def _mark_terminated(self) -> None:
        self.state = ProcessState.TERMINATED
        self.waiting_on = None
        self.terminated_event.notify_delta()


def as_sensitivity(events: "Optional[Iterable[SCEvent] | SCEvent]") -> "tuple[SCEvent, ...]":
    """Normalise a sensitivity specification into a tuple of events."""
    if events is None:
        return ()
    if isinstance(events, SCEvent):
        return (events,)
    return tuple(events)

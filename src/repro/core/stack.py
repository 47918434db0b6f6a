"""SIM_Stack — the nested-interrupt stack of the SIM_API library.

Section 4 of the paper: *"... a stack (SIM_Stack) data structure to model
nested interrupts."*  Every time an interrupt (or a nested interrupt)
preempts the current context, a frame describing the suspended context is
pushed; returning from the handler pops it.  The stack depth therefore equals
the current interrupt nesting level, which is what the *delayed dispatching*
rule consults: a preemption decided while the stack is non-empty is deferred
until the stack drains.
"""

from __future__ import annotations

from typing import Generic, List, Optional, TypeVar

from repro.sysc.time import SimTime

T = TypeVar("T")


class StackFrame(Generic[T]):
    """One suspended context (the interrupted T-THREAD, or None for idle)."""

    __slots__ = ("interrupted", "handler", "time", "level")

    def __init__(self, interrupted: Optional[T], handler: T, time: SimTime,
                 level: int):
        self.interrupted = interrupted
        self.handler = handler
        self.time = time
        self.level = level


class SimStack(Generic[T]):
    """A stack of interrupted contexts modelling interrupt nesting."""

    def __init__(self, max_depth: Optional[int] = None):
        self._frames: List[StackFrame[T]] = []
        self.max_depth = max_depth
        self.max_observed_depth = 0
        self.push_count = 0

    # -- stack operations -----------------------------------------------------
    def push(self, interrupted: Optional[T], handler: T, now: SimTime) -> StackFrame[T]:
        """Push the context suspended by *handler*."""
        if self.max_depth is not None and len(self._frames) >= self.max_depth:
            raise OverflowError(
                f"interrupt nesting exceeds the maximum depth of {self.max_depth}"
            )
        frame = StackFrame(interrupted, handler, now, len(self._frames) + 1)
        self._frames.append(frame)
        self.push_count += 1
        self.max_observed_depth = max(self.max_observed_depth, len(self._frames))
        return frame

    def pop(self) -> StackFrame[T]:
        """Pop the most recent frame (return from the current handler)."""
        if not self._frames:
            raise IndexError("SIM_Stack underflow: no interrupt context to return from")
        return self._frames.pop()

    def peek(self) -> StackFrame[T]:
        """The top frame without popping it."""
        if not self._frames:
            raise IndexError("SIM_Stack is empty")
        return self._frames[-1]

    # -- queries ----------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Current interrupt nesting level."""
        return len(self._frames)

    def is_empty(self) -> bool:
        """Whether no interrupt is being serviced."""
        return not self._frames

    def in_interrupt(self) -> bool:
        """Whether at least one interrupt handler is active."""
        return bool(self._frames)

    def current_handler(self) -> Optional[T]:
        """The handler currently executing, if any."""
        return self._frames[-1].handler if self._frames else None

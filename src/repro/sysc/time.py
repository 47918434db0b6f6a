"""Simulation time representation.

SystemC represents time as an integer number of a global time resolution.
We follow the same idea: all simulation time is held as an integer count of
nanoseconds wrapped in :class:`SimTime`.  Integer arithmetic keeps long
co-simulation runs free of floating-point drift, which matters because the
RTOS tick (1 ms by default) must stay exactly periodic.

Convenience constructors mirror the SystemC time units::

    SimTime.ns(10)      # 10 nanoseconds
    SimTime.us(3)       # 3 microseconds
    SimTime.ms(1)       # the default system tick of the paper's RTC
    SimTime.sec(1)      # the reference simulated second of Table 2

Fast-core convention (PR 3)
---------------------------

:class:`SimTime` is the *public boundary type*: every API that accepts or
returns a time speaks :class:`SimTime` (or a bare number of nanoseconds).
The simulator's hot plane — the timed queue, the delta machinery, signal
settling, SIM_Wait chunking — operates on plain ``int`` nanoseconds
internally and converts at the boundary.  To keep that boundary cheap the
class is slotted, comparisons are hand-written with an integer fast path
(no ``functools.total_ordering`` dispatch chain), and :meth:`coerce`
returns ``int`` inputs without a ``float``/``round`` round-trip.
"""

from __future__ import annotations

import enum


class TimeUnit(enum.IntEnum):
    """Time units expressed as nanosecond multipliers."""

    NS = 1
    US = 1_000
    MS = 1_000_000
    SEC = 1_000_000_000


NS = TimeUnit.NS
US = TimeUnit.US
MS = TimeUnit.MS
SEC = TimeUnit.SEC


class SimTime:
    """An absolute or relative simulation time, stored in nanoseconds.

    A value: equal times hash alike, so no caller mutates ``nanoseconds``.
    """

    __slots__ = ("nanoseconds",)

    def __init__(self, nanoseconds: int = 0):
        self.nanoseconds = nanoseconds

    # -- constructors -----------------------------------------------------
    @classmethod
    def ns(cls, value: float) -> "SimTime":
        """Create a time of *value* nanoseconds."""
        if type(value) is int:
            return cls(value)
        return cls(int(round(value)))

    @classmethod
    def us(cls, value: float) -> "SimTime":
        """Create a time of *value* microseconds."""
        if type(value) is int:
            return cls(value * 1_000)
        return cls(int(round(value * 1_000)))

    @classmethod
    def ms(cls, value: float) -> "SimTime":
        """Create a time of *value* milliseconds."""
        if type(value) is int:
            return cls(value * 1_000_000)
        return cls(int(round(value * 1_000_000)))

    @classmethod
    def sec(cls, value: float) -> "SimTime":
        """Create a time of *value* seconds."""
        if type(value) is int:
            return cls(value * 1_000_000_000)
        return cls(int(round(value * 1_000_000_000)))

    @classmethod
    def coerce(cls, value: "SimTime | int | float") -> "SimTime":
        """Coerce *value* into a :class:`SimTime`.

        Bare numbers are interpreted as nanoseconds, matching the internal
        resolution.  ``int`` inputs take a direct path; only ``float`` (and
        other real numbers) pay the rounding conversion.
        """
        if isinstance(value, SimTime):
            return value
        if type(value) is int:
            return cls(value)
        return cls(int(round(value)))

    # -- conversions ------------------------------------------------------
    def to_ns(self) -> int:
        """Return the time as an integer number of nanoseconds."""
        return self.nanoseconds

    def to_ms(self) -> float:
        """Return the time in milliseconds."""
        return self.nanoseconds / MS

    def to_sec(self) -> float:
        """Return the time in seconds."""
        return self.nanoseconds / SEC

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: "SimTime | int") -> "SimTime":
        if isinstance(other, SimTime):
            return SimTime(self.nanoseconds + other.nanoseconds)
        return SimTime(self.nanoseconds + SimTime.coerce(other).nanoseconds)

    def __radd__(self, other: "SimTime | int") -> "SimTime":
        return self.__add__(other)

    def __sub__(self, other: "SimTime | int") -> "SimTime":
        if isinstance(other, SimTime):
            return SimTime(self.nanoseconds - other.nanoseconds)
        return SimTime(self.nanoseconds - SimTime.coerce(other).nanoseconds)

    def __mul__(self, factor: int) -> "SimTime":
        return SimTime(self.nanoseconds * factor)

    def __rmul__(self, factor: int) -> "SimTime":
        return self.__mul__(factor)

    def __floordiv__(self, other: "SimTime | int") -> int:
        return self.nanoseconds // SimTime.coerce(other).nanoseconds

    def __mod__(self, other: "SimTime | int") -> "SimTime":
        return SimTime(self.nanoseconds % SimTime.coerce(other).nanoseconds)

    def __neg__(self) -> "SimTime":
        return SimTime(-self.nanoseconds)

    def __bool__(self) -> bool:
        return self.nanoseconds != 0

    # -- ordering ---------------------------------------------------------
    # Hand-written with the SimTime/SimTime integer comparison first: the
    # @total_ordering dispatch chain (__gt__ -> not __lt__ and not __eq__)
    # showed up in kernel-loop profiles.
    def __eq__(self, other: object) -> bool:
        if isinstance(other, SimTime):
            return self.nanoseconds == other.nanoseconds
        if isinstance(other, (int, float)):
            return self.nanoseconds == other
        return NotImplemented

    def __lt__(self, other: "SimTime | int | float") -> bool:
        if isinstance(other, SimTime):
            return self.nanoseconds < other.nanoseconds
        if isinstance(other, (int, float)):
            return self.nanoseconds < other
        return NotImplemented

    def __le__(self, other: "SimTime | int | float") -> bool:
        if isinstance(other, SimTime):
            return self.nanoseconds <= other.nanoseconds
        if isinstance(other, (int, float)):
            return self.nanoseconds <= other
        return NotImplemented

    def __gt__(self, other: "SimTime | int | float") -> bool:
        if isinstance(other, SimTime):
            return self.nanoseconds > other.nanoseconds
        if isinstance(other, (int, float)):
            return self.nanoseconds > other
        return NotImplemented

    def __ge__(self, other: "SimTime | int | float") -> bool:
        if isinstance(other, SimTime):
            return self.nanoseconds >= other.nanoseconds
        if isinstance(other, (int, float)):
            return self.nanoseconds >= other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.nanoseconds)

    def __repr__(self) -> str:
        return f"SimTime({self.format()})"

    def format(self) -> str:
        """Render the time with the most natural unit."""
        value = self.nanoseconds
        if value == 0:
            return "0 s"
        for unit, name in ((SEC, "s"), (MS, "ms"), (US, "us")):
            if value % unit == 0:
                return f"{value // unit} {name}"
        return f"{value} ns"


ZERO_TIME = SimTime(0)

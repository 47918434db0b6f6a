"""Waveform tracing.

The paper's case study probes BFM signals and variables in a waveform viewer
(Fig. 4).  :class:`TraceFile` records settled signal values over time and can
render a compact ASCII waveform or export VCD text, which is the headless
substitute for that viewer.

Since the observability bus landed, :class:`TraceFile` is a *sink* on the
bus's ``signal`` topic rather than a per-signal observer: ``trace(signal)``
subscribes it to the signal's simulator bus and records only the named
signals it was asked to probe.  Records are kept both in arrival order
(``records``) and in a per-signal index, so ``changes_of``/``value_at`` are
O(changes-of-that-signal) with a bisect instead of scanning the full run
history per query.

:meth:`TraceFile.to_vcd` is the one VCD writer; the helpers below encode
its declarations and value changes.  Two historical bugs were fixed here:

* identifiers were allocated as ``chr(33 + index)``, which walks off the end
  of the printable range past ~94 signals and even collides with VCD keyword
  characters; :func:`vcd_identifier` uses bijective base-94 numeration over
  the full printable identifier alphabet (``!`` .. ``~``), giving unique
  multi-character identifiers for any signal count;
* every variable was declared ``wire 32`` even for 1-bit boolean signals;
  :func:`vcd_width` sizes the declaration from the signal's value.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Set

from repro.sysc.signal import Signal
from repro.sysc.time import SimTime


#: Printable VCD identifier alphabet: '!' (33) through '~' (126).
_ALPHABET_SIZE = 94
_ALPHABET_BASE = 33


def vcd_identifier(index: int) -> str:
    """Unique printable identifier for the *index*-th declared variable.

    Bijective base-94: indices 0..93 map to single characters ``!``..``~``,
    index 94 onwards to multi-character identifiers (``!!``, ``"!``, ...).
    """
    if index < 0:
        raise ValueError("identifier index cannot be negative")
    out = []
    index += 1
    while index > 0:
        index -= 1
        out.append(chr(_ALPHABET_BASE + index % _ALPHABET_SIZE))
        index //= _ALPHABET_SIZE
    return "".join(out)


def vcd_width(value: object) -> int:
    """Bit width to declare for a signal whose current value is *value*."""
    if isinstance(value, bool):
        return 1
    return 32


def vcd_var(name: str, value: object, identifier: str) -> str:
    """A ``$var`` declaration line for one signal."""
    return f"$var wire {vcd_width(value)} {identifier} {name} $end"


def vcd_value(value: object, identifier: str) -> str:
    """A value-change line for one signal."""
    if isinstance(value, bool):
        return f"{int(value)}{identifier}"
    if isinstance(value, int):
        return f"b{value:b} {identifier}"
    return f"s{value} {identifier}"


class TraceRecord:
    """One recorded value change."""

    __slots__ = ("time", "signal", "old", "new")

    def __init__(self, time: SimTime, signal: str, old: object, new: object):
        self.time = time
        self.signal = signal
        self.old = old
        self.new = new


class TraceFile:
    """Records value changes of the signals attached to it.

    An observability-bus sink (``handle``) on the ``signal`` topic.
    """

    topics = ("signal",)

    def __init__(self, name: str = "trace"):
        self.name = name
        self.records: List[TraceRecord] = []
        self._signals: List[Signal] = []
        self._initial: Dict[str, object] = {}
        self._names: Set[str] = set()
        self._traced_signals: Set[Signal] = set()
        self._by_signal: Dict[str, List[TraceRecord]] = {}
        self._times_ns: Dict[str, List[int]] = {}
        # Strong references so a bus is never mistaken for a later one that
        # happens to reuse its memory address (identity-based membership).
        self._subscribed_buses: Set[object] = set()

    # -- recording ----------------------------------------------------------
    def trace(self, signal: Signal) -> None:
        """Start tracing *signal*."""
        bus = signal._simulator.obs
        if bus not in self._subscribed_buses:
            bus.subscribe(self, ("signal",))
            self._subscribed_buses.add(bus)
        self._signals.append(signal)
        self._names.add(signal.name)
        self._traced_signals.add(signal)
        self._initial[signal.name] = signal.read()
        self._by_signal.setdefault(signal.name, [])
        self._times_ns.setdefault(signal.name, [])

    def handle(self, event) -> None:
        """Bus-sink entry point for ``signal``-topic events."""
        fields = event.fields
        # Filter by signal *identity* when the publisher provides it —
        # signal names are not required to be unique — falling back to the
        # name filter for synthetic events.
        publisher = fields.get("_signal")
        if publisher is not None:
            if publisher not in self._traced_signals:
                return
        elif fields["signal"] not in self._names:
            return
        self._record(SimTime(event.t_ns), fields["signal"], fields["old"], fields["new"])

    def _record(self, when: SimTime, name: str, old: object, new: object) -> None:
        record = TraceRecord(when, name, old, new)
        self.records.append(record)
        self._by_signal.setdefault(name, []).append(record)
        self._times_ns.setdefault(name, []).append(when.nanoseconds)

    # -- queries ---------------------------------------------------------------
    def signal_names(self) -> List[str]:
        """Names of all traced signals."""
        return [signal.name for signal in self._signals]

    def changes_of(self, signal_name: str) -> List[TraceRecord]:
        """All recorded changes of one signal (indexed, not a full scan)."""
        return list(self._by_signal.get(signal_name, ()))

    def value_at(self, signal_name: str, when: "SimTime | int") -> object:
        """The settled value of *signal_name* at time *when* (bisect lookup)."""
        when_ns = SimTime.coerce(when).nanoseconds
        times = self._times_ns.get(signal_name)
        if not times:
            return self._initial.get(signal_name)
        index = bisect_right(times, when_ns)
        if index == 0:
            return self._initial.get(signal_name)
        return self._by_signal[signal_name][index - 1].new

    # -- rendering -------------------------------------------------------------
    def to_vcd(self, timescale: str = "1ns") -> str:
        """Render the trace as VCD text (value change dump)."""
        lines = [f"$timescale {timescale} $end", "$scope module trace $end"]
        identifiers: Dict[str, str] = {}
        for index, signal in enumerate(self._signals):
            identifier = vcd_identifier(index)
            identifiers[signal.name] = identifier
            lines.append(vcd_var(signal.name, self._initial.get(signal.name), identifier))
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")
        lines.append("#0")
        for name, value in self._initial.items():
            if name in identifiers:
                lines.append(vcd_value(value, identifiers[name]))
        last_time = 0
        for record in self.records:
            if record.signal not in identifiers:
                continue
            time_ns = record.time.to_ns()
            if time_ns != last_time:
                lines.append(f"#{time_ns}")
                last_time = time_ns
            lines.append(vcd_value(record.new, identifiers[record.signal]))
        return "\n".join(lines)

    def render_ascii(
        self,
        signals: Optional[Sequence[str]] = None,
        start: "SimTime | int" = 0,
        stop: "SimTime | int | None" = None,
        step: "SimTime | int" = SimTime.ms(1),
        width: int = 60,
    ) -> str:
        """Render a sampled ASCII waveform of the selected signals."""
        names = list(signals) if signals is not None else self.signal_names()
        start = SimTime.coerce(start)
        step = SimTime.coerce(step)
        if stop is None:
            last = max((r.time for r in self.records), default=start)
            stop = last + step
        stop = SimTime.coerce(stop)
        samples = min(width, max(1, (stop - start) // step))
        lines = []
        for name in names:
            cells = []
            for index in range(samples):
                when = start + step * index
                value = self.value_at(name, when)
                cells.append(self._ascii_cell(value))
            lines.append(f"{name:<28} {''.join(cells)}")
        return "\n".join(lines)

    @staticmethod
    def _ascii_cell(value: object) -> str:
        if isinstance(value, bool):
            return "#" if value else "_"
        if value is None:
            return "."
        if isinstance(value, int):
            return str(value % 10)
        return "x"

"""Gantt chart recording and rendering.

The SIM_API library "has a debugging option for displaying time GANTT chart,
and energy statistics for all registered T-THREADs" (section 4).  The Fig. 6
widget additionally distinguishes the execution context of every slice
(BFM access, basic block, OS service, handler).  :class:`GanttChart` records
the slices; rendering is plain text so it works headless.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.events import ExecutionContext
from repro.sysc.time import SimTime

#: One display character per execution context ("different contexts of
#: execution are assigned different patterns" — Fig. 6).
CONTEXT_PATTERNS: Dict[ExecutionContext, str] = {
    ExecutionContext.STARTUP: "S",
    ExecutionContext.SERVICE_CALL: "o",
    ExecutionContext.TASK: "#",
    ExecutionContext.HANDLER: "H",
    ExecutionContext.BFM_ACCESS: "B",
    ExecutionContext.IDLE: ".",
}


class GanttSegment:
    """One contiguous execution slice of a T-THREAD."""

    __slots__ = ("thread", "start", "end", "context", "energy_nj", "label")

    def __init__(self, thread: str, start: SimTime, end: SimTime,
                 context: ExecutionContext, energy_nj: float = 0.0,
                 label: str = ""):
        self.thread = thread
        self.start = start
        self.end = end
        self.context = context
        self.energy_nj = energy_nj
        self.label = label

    @property
    def duration(self) -> SimTime:
        """Length of the slice."""
        return self.end - self.start


class GanttMarker:
    """A point event on the chart (dispatch, preemption, interrupt).

    Markers compare by value.
    """

    __slots__ = ("time", "thread", "kind")

    def __init__(self, time: SimTime, thread: str, kind: str):
        self.time = time
        self.thread = thread
        self.kind = kind

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GanttMarker:
            return NotImplemented
        return (self.time, self.thread, self.kind) == (
            other.time, other.thread, other.kind)


class GanttChart:
    """Accumulates execution slices and point markers.

    The chart is an observability-bus *sink*: subscribed to the ``sched``
    topic it rebuilds the classic recording from the stream — ``exec``
    events become segments, everything else becomes a marker.  It is a
    debugging view (the Fig. 6 widget), not the run's history, so nothing
    subscribes one by default.  To see a run from its first dispatch,
    subscribe the chart on the simulator's bus before the scenario is
    built (``run_spec(spec, sinks=[chart])`` does this).
    """

    topics = ("sched",)

    def __init__(self, name: str = "gantt"):
        self.name = name
        self.segments: List[GanttSegment] = []
        self.markers: List[GanttMarker] = []

    # -- recording -------------------------------------------------------------

    def handle(self, event) -> None:
        """Bus-sink entry point for ``sched``-topic events."""
        fields = event.fields
        if event.kind == "exec":
            start = SimTime(event.t_ns)
            self.segments.append(
                GanttSegment(
                    fields["thread"],
                    start,
                    start + SimTime(fields["dur_ns"]),
                    fields["context"],
                    fields["energy_nj"],
                    fields["label"],
                )
            )
        else:
            self.markers.append(
                GanttMarker(SimTime(event.t_ns), fields["thread"], event.kind)
            )

    # -- queries ------------------------------------------------------------------
    def threads(self) -> List[str]:
        """Thread names appearing on the chart, in order of first appearance."""
        seen: List[str] = []
        for segment in self.segments:
            if segment.thread not in seen:
                seen.append(segment.thread)
        for marker in self.markers:
            if marker.thread not in seen:
                seen.append(marker.thread)
        return seen

    def segments_of(self, thread: str) -> List[GanttSegment]:
        """All slices of one thread."""
        return [s for s in self.segments if s.thread == thread]

    def energy_of(self, thread: str) -> float:
        """Total energy (nJ) recorded for *thread*."""
        return sum(s.energy_nj for s in self.segments_of(thread))

    def end_time(self) -> SimTime:
        """Time of the last recorded activity."""
        latest = SimTime(0)
        for segment in self.segments:
            if segment.end > latest:
                latest = segment.end
        for marker in self.markers:
            if marker.time > latest:
                latest = marker.time
        return latest

    def overlapping_segments(self) -> List[tuple]:
        """Pairs of segments that overlap in time.

        On a single CPU no two execution slices may overlap; tests use this
        to assert the single-CPU invariant of the SIM_API dispatcher.
        """
        ordered = sorted(self.segments, key=lambda s: (s.start.to_ns(), s.end.to_ns()))
        overlaps = []
        for first, second in zip(ordered, ordered[1:]):
            if second.start < first.end:
                overlaps.append((first, second))
        return overlaps

    # -- rendering --------------------------------------------------------------
    def render(
        self,
        start: "SimTime | int" = 0,
        stop: "SimTime | int | None" = None,
        columns: int = 72,
        threads: Optional[Sequence[str]] = None,
    ) -> str:
        """Render a text Gantt chart sampled over [start, stop)."""
        start = SimTime.coerce(start)
        stop = SimTime.coerce(stop) if stop is not None else self.end_time()
        if stop <= start:
            stop = start + SimTime.ms(1)
        span_ns = stop.to_ns() - start.to_ns()
        names = list(threads) if threads is not None else self.threads()
        width = max((len(n) for n in names), default=10)
        lines = [f"GANTT {self.name}  [{start.format()} .. {stop.format()}]"]
        for name in names:
            cells = ["."] * columns
            for segment in self.segments_of(name):
                if segment.end <= start or segment.start >= stop:
                    continue
                first = max(0, (segment.start.to_ns() - start.to_ns()) * columns // span_ns)
                last = min(
                    columns - 1,
                    max(first, (segment.end.to_ns() - 1 - start.to_ns()) * columns // span_ns),
                )
                pattern = CONTEXT_PATTERNS.get(segment.context, "#")
                for col in range(int(first), int(last) + 1):
                    cells[col] = pattern
            lines.append(f"{name:<{width}} |{''.join(cells)}|")
        legend = "  ".join(
            f"{pattern}={context.value}" for context, pattern in CONTEXT_PATTERNS.items()
        )
        lines.append(f"legend: {legend}")
        return "\n".join(lines)

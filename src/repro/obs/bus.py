"""The observability bus: one streaming event pipeline for every layer.

The paper's deliverable is *visibility into RTOS dynamics* — waveform probes
(Fig. 4), execution traces (Fig. 6), kernel data-structure listings (Fig. 8).
Before this module each of those was recorded through a bespoke mechanism
(flat trace lists, in-memory Gantt accumulation, post-run JSONL conversion).
:class:`EventBus` replaces them with a single structured pipeline:

* **Publishers** (the simulation kernel, signals, SIM_API, the T-Kernel
  service layer, BFM drivers, the campaign runner) emit typed events onto
  named *topics*.
* **Sinks** subscribe to topics and consume the stream as it happens: a
  streaming JSONL writer, per-kind counters, the Gantt-chart builder and
  the waveform recorder (see :mod:`repro.obs.sinks`,
  :class:`repro.core.gantt.GanttChart` and
  :class:`repro.sysc.trace.TraceFile`).

Topics
------

==========  ==========================================================
``kernel``  DES kernel internals: timed advances, delta cycles,
            process lifecycle (:class:`repro.sysc.kernel.Simulator`)
``sched``   SIM_API dispatching: dispatch/preempt/interrupted/sleep
            markers and ``exec`` slices (:class:`repro.core.simapi.SimApi`)
``svc``     T-Kernel service-call enter/exit
            (:class:`repro.tkernel.kernel.TKernelOS`)
``irq``     interrupt raising and ISR dispatch
``signal``  settled signal value changes (:class:`repro.sysc.signal.Signal`)
``bfm``     BFM bus transactions (:class:`repro.bfm.driver.BusDriver`)
``campaign`` campaign run lifecycle (:func:`repro.campaign.runner.run_spec`)
==========  ==========================================================

Every topic carries simulated time only.  Host wall-clock phase spans are
not bus events: they live in a
:class:`~repro.analytics.telemetry.TelemetryRecorder` and its sidecar.

The zero-cost fast path
-----------------------

Publishing must cost *nothing* when nobody listens: production-scale campaign
sweeps run with no sinks attached, and the paper's speed claims (Table 2)
depend on instrumentation not taxing the simulation.  Every publisher
therefore holds a direct reference to its :class:`Topic` and guards the
publish site with the topic's ``enabled`` flag::

    topic = self._obs_sched            # cached at construction
    if topic.enabled:                  # plain attribute read, no call
        topic.emit("dispatch", t_ns, thread=name)

``enabled`` is maintained by ``attach``/``detach``; when it is ``False`` the
publish site performs one attribute load and one branch — no closure, no
record construction, no dictionary allocation.  The throughput benchmark
(``benchmarks/test_obs_bus_overhead.py``) asserts this stays true.

One publish path
----------------

With a sink attached, :meth:`Topic.emit` publishes one event: it builds
one fresh :class:`Event` and hands it to every sink, so a sink may keep
what it is handed.  Publishers spell their fields out as keywords.  How an
event becomes a line of JSON is the sinks' business: :func:`canonical_json`
of :func:`event_to_dict`.

Declared shapes
---------------

A publisher that publishes one event again and again at later times may
build a :class:`Shape` (all of the event but ``t_ns``) once and publish it
with :meth:`Topic.emit_shape`: SIM_API builds one per exec chunk kind of a
``SIM_Wait`` slice plan and one per (thread, marker kind).  A sink with a
``handle_shape(shape, t_ns)`` method, such as
:class:`~repro.obs.sinks.JsonlStreamSink`, is handed the shape and may
cache what it renders on it; every other sink gets one fresh
:class:`Event` per publish with a copy of the shape's fields.  The topic
records which kind each sink is once, at :meth:`Topic.attach`.
"""

from __future__ import annotations

import enum
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: The fixed topic namespace of the bus.
TOPICS: Tuple[str, ...] = (
    "kernel", "sched", "svc", "irq", "signal", "bfm", "campaign",
)


class Event:
    """One published event: a topic, a kind, a timestamp and payload fields.

    Events are only constructed on the slow path (at least one sink
    attached to the topic); ``__slots__`` keeps them cheap even then.
    """

    __slots__ = ("topic", "kind", "t_ns", "fields")

    def __init__(self, topic: str, kind: str, t_ns: int, fields: Dict[str, Any]):
        self.topic = topic
        self.kind = kind
        self.t_ns = t_ns
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dictionary form (see :func:`event_to_dict`)."""
        return event_to_dict(self)


class Shape:
    """All of an event but ``t_ns``, published with :meth:`Topic.emit_shape`
    on the topic named *topic* (see "Declared shapes" above); no one changes
    *fields* afterwards.  ``cut`` is ``None`` until a shape-rendering sink
    first renders the shape, which then keeps what it derived there.
    """

    __slots__ = ("topic", "kind", "fields", "cut")

    def __init__(self, topic: str, kind: str, fields: Dict[str, Any]):
        self.topic = topic
        self.kind = kind
        self.fields = fields
        self.cut: Any = None


class Topic:
    """One named event stream with its attached sinks.

    ``enabled`` is the publisher-side fast-path flag: it is ``True`` exactly
    while at least one sink is attached, so publishers can skip all event
    construction with a single attribute check.  :meth:`emit` publishes one
    event and :meth:`emit_shape` one event of a declared shape; either way
    a sink that is handed an :class:`Event` gets a fresh one, so it may
    keep whatever it is handed.
    """

    __slots__ = ("name", "enabled", "_sinks", "_shape_handlers", "_event_sinks")

    def __init__(self, name: str):
        self.name = name
        self.enabled = False
        self._sinks: List[Any] = []
        self._shape_handlers: List[Any] = []
        self._event_sinks: List[Any] = []

    def attach(self, sink: Any) -> None:
        """Attach *sink* (an object with ``handle(event)``); idempotent."""
        if sink not in self._sinks:
            self._sinks.append(sink)
            self._split()
        self.enabled = True

    def detach(self, sink: Any) -> None:
        """Detach *sink* if attached; disables the topic when none remain."""
        if sink in self._sinks:
            self._sinks.remove(sink)
            self._split()
        self.enabled = bool(self._sinks)

    def _split(self) -> None:
        """Record once which sinks render shapes and which take events."""
        handlers = [getattr(sink, "handle_shape", None) for sink in self._sinks]
        self._shape_handlers = [handler for handler in handlers if handler]
        self._event_sinks = [
            sink for sink, handler in zip(self._sinks, handlers) if not handler]

    def emit(self, kind: str, t_ns: int, **fields: Any) -> None:
        """Publish one event to every attached sink.

        Publishers must only call this behind an ``if topic.enabled:``
        guard; calling it on a disabled topic is harmless but wastes the
        fast path.
        """
        event = Event(self.name, kind, t_ns, fields)
        for sink in self._sinks:
            sink.handle(event)

    def emit_shape(self, shape: Shape, t_ns: int) -> None:
        """Publish *shape* at *t_ns* (behind the same ``enabled`` guard):
        shape-rendering sinks get both, then every other sink one fresh
        :class:`Event` with a copy of the shape's fields."""
        for handle_shape in self._shape_handlers:
            handle_shape(shape, t_ns)
        if self._event_sinks:
            event = Event(self.name, shape.kind, t_ns, dict(shape.fields))
            for sink in self._event_sinks:
                sink.handle(event)


class EventBus:
    """A set of topics with per-topic subscription.

    Every :class:`~repro.sysc.kernel.Simulator` owns one bus (``sim.obs``) so
    that concurrent simulators — the campaign batch engine runs many in one
    process over its lifetime — never share instrumentation state.
    """

    __slots__ = ("_topics",)

    def __init__(self) -> None:
        self._topics: Dict[str, Topic] = {name: Topic(name) for name in TOPICS}

    def topic(self, name: str) -> Topic:
        """The named topic; raises :class:`KeyError` outside :data:`TOPICS`."""
        return self._topics[name]

    def subscribe(self, sink: Any, topics: Optional[Sequence[str]] = None) -> Any:
        """Attach *sink* to the named topics.

        With ``topics=None`` the sink's own ``topics`` attribute is used,
        falling back to every topic.  Returns the sink (handy for one-liners).
        """
        names: Iterable[str]
        if topics is not None:
            names = topics
        else:
            sink_topics = getattr(sink, "topics", None)
            # An explicit empty tuple means "no default topics", not "all".
            names = TOPICS if sink_topics is None else sink_topics
        for name in names:
            self._topics[name].attach(sink)
        return sink

    def detach_all(self) -> None:
        """Detach every sink from every topic (simulator teardown)."""
        for topic in self._topics.values():
            for sink in topic._sinks[:]:
                topic.detach(sink)


# ----------------------------------------------------------------------
# Event serialization
# ----------------------------------------------------------------------
#: The one canonical encoder, built once: ``json.dumps`` with these
#: options would build a new encoder on every call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(document: Mapping[str, Any]) -> str:
    """Deterministic JSON encoding (sorted keys, tight separators).

    The single definition behind both the streaming sinks and the campaign
    metrics/event files — byte-identity guarantees across the two depend on
    there being exactly one encoder.
    """
    return _CANONICAL_ENCODER.encode(document)


def event_to_dict(event: Event) -> Dict[str, Any]:
    """Convert an event into the JSON document the streaming sinks write.

    ``sched`` events have the compact shape the golden streams and every
    stored artifact pin: markers are ``{t_ms, thread, kind}`` and execution
    slices are ``{t_ms, thread, kind: "exec", dur_ms, context, energy_nj,
    label}``.
    Other topics serialize generically as ``{t_ms, topic, kind, **fields}``;
    underscore-prefixed payload keys are in-process-only (rich objects for
    sinks that need identity, e.g. the publishing signal) and are dropped.
    """
    fields = event.fields
    if event.topic == "sched":
        if event.kind == "exec":
            return {
                "t_ms": event.t_ns / 1_000_000,
                "thread": fields["thread"],
                "kind": "exec",
                "dur_ms": fields["dur_ns"] / 1_000_000,
                "context": _json_safe(fields["context"]),
                "energy_nj": fields["energy_nj"],
                "label": fields["label"],
            }
        return {
            "t_ms": event.t_ns / 1_000_000,
            "thread": fields["thread"],
            "kind": event.kind,
        }
    document: Dict[str, Any] = {
        "t_ms": event.t_ns / 1_000_000,
        "topic": event.topic,
        "kind": event.kind,
    }
    for key, value in fields.items():
        if key.startswith("_"):
            continue
        document[key] = _json_safe(value)
    return document


def _json_safe(value: Any) -> Any:
    """Coerce a payload value into something ``json.dumps`` accepts."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, enum.Enum):
        return value._value_
    nanoseconds = getattr(value, "nanoseconds", None)
    if isinstance(nanoseconds, int):  # SimTime without importing sysc here
        return nanoseconds / 1_000_000
    return str(value)

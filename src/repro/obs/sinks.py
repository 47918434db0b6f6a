"""Pluggable sinks for the observability bus.

A sink is any object with a ``handle(event)`` method; subscribing it to an
:class:`~repro.obs.bus.EventBus` enables the topics it listens on.  A sink
may declare a ``topics`` tuple used as the default subscription set, and may
implement ``close()`` to flush/release resources when the run ends.

Sinks here cover the consumption patterns the campaign layer needs:

* :class:`ListSink` — keep everything (tests, small interactive runs),
* :class:`CounterSink` — per-``(topic, kind)`` tallies at O(1) memory,
* :class:`JsonlStreamSink` — stream JSON Lines to a file/stdout *during*
  the run instead of materializing the event list afterwards.

Every sink is a context manager (``with JsonlStreamSink(path) as sink:``)
and ``close()`` is idempotent, so an interrupted run still flushes a valid,
parseable prefix on the way out.

The Gantt builder (:class:`repro.core.gantt.GanttChart`) and the waveform
recorder (:class:`repro.sysc.trace.TraceFile`, the one VCD writer) are sinks
too; they live with their data models.  :class:`StreamingHistogram` is not a
sink: the analytics plane feeds it the exec durations of stored streams.
"""

from __future__ import annotations

import math
import os
import stat
import sys
from typing import (
    Dict, IO, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.obs.bus import Event, Shape, canonical_json, event_to_dict

#: ``json.dumps`` renders finite floats through ``float.__repr__``;
#: :class:`JsonlStreamSink` reuses it for the ``t_ms`` of a shaped line.
_float_repr = float.__repr__

#: Lines :class:`JsonlStreamSink` buffers before one ``writelines`` call.
BATCH_LINES = 256


def _open_target(target: "Union[str, IO[str]]") -> "Tuple[IO[str], bool]":
    """Resolve a stream target: ``"-"`` → stdout, path → owned file handle,
    anything else is treated as an open stream borrowed from the caller.
    Returns ``(stream, owns_stream)``."""
    if target == "-":
        return sys.stdout, False
    if isinstance(target, str):
        fd = os.open(target, os.O_WRONLY | os.O_CREAT, 0o666)
        return open(fd, "w", encoding="utf-8"), True
    return target, False


class Sink:
    """Base class for bus sinks (subclassing is optional — duck typing works).

    Every publish hands ``handle`` a fresh :class:`Event`, so a sink may
    keep the event or its fields dict for as long as it likes.  A sink that
    also defines ``handle_shape(shape, t_ns)`` is handed events of a
    declared shape that way instead (see "Declared shapes" in
    :mod:`repro.obs.bus`).
    """

    #: Default topics :meth:`EventBus.subscribe` attaches the sink to.
    topics: Optional[Tuple[str, ...]] = None

    def close(self) -> None:  # pragma: no cover - default no-op
        """Flush and release any resources the sink holds (idempotent)."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        # Close on the error path too: a crashed run must still flush the
        # stream so the file on disk is a valid, parseable prefix.
        self.close()


class ListSink(Sink):
    """Collects every event in arrival order (unbounded; tests and small runs)."""

    def __init__(self, topics: Optional[Sequence[str]] = None):
        if topics is not None:
            self.topics = tuple(topics)
        self.events: List[Event] = []

    def handle(self, event: Event) -> None:
        self.events.append(event)


class CounterSink(Sink):
    """Tallies events per ``(topic, kind)`` without retaining them."""

    def __init__(self, topics: Optional[Sequence[str]] = None):
        if topics is not None:
            self.topics = tuple(topics)
        self.counts: Dict[Tuple[str, str], int] = {}

    def handle(self, event: Event) -> None:
        key = (event.topic, event.kind)
        self.counts[key] = self.counts.get(key, 0) + 1

    def count(self, topic: Optional[str] = None, kind: Optional[str] = None) -> int:
        """Total over every ``(topic, kind)`` cell matching the filters."""
        return sum(
            value for (event_topic, event_kind), value in self.counts.items()
            if (topic is None or event_topic == topic)
            and (kind is None or event_kind == kind)
        )

    def total(self) -> int:
        """All events seen."""
        return sum(self.counts.values())

    def snapshot(self) -> Dict[str, int]:
        """The tallies as ``{"topic/kind": count}`` in sorted key order.

        Iteration order of ``counts`` follows arrival order, which varies
        run to run; the snapshot sorts so any JSON rendered from it is
        byte-stable across hosts and Python hash seeds.
        """
        return {
            f"{topic}/{kind}": self.counts[(topic, kind)]
            for topic, kind in sorted(self.counts)
        }


class JsonlStreamSink(Sink):
    """Streams events as JSON Lines while the simulation runs.

    *target* may be a path (opened and owned by the sink), ``"-"`` for
    stdout, or any open text stream (flushed but not closed).  Every line
    is ``canonical_json(event_to_dict(event))`` (sorted keys, tight
    separators), so a streamed file is byte-identical to one written from
    a collected list.  A path is rewritten in place: an existing file is
    not truncated when the sink opens it, and ``close`` cuts it to the
    bytes the sink wrote, on the error path too.

    Lines are rendered immediately but buffered and handed to the stream
    in ``writelines`` batches of :data:`BATCH_LINES`; each batch consists
    of whole lines only, so however the run ends — normal close,
    error-path ``__exit__``, or a kill between batches — the bytes written
    are a valid JSONL prefix (after a kill, a longer old file's tail
    still follows them).

    An event of a declared shape (see "Declared shapes" in
    :mod:`repro.obs.bus`) reaches :meth:`handle_shape`, which renders the
    shape's line once and keeps its head (up to ``"t_ms":``) and tail (the
    rest) on the :class:`~repro.obs.bus.Shape`, so every later line of the
    shape costs one float repr of ``t_ms``.  The cut is taken only where it
    is unambiguous: an ``int`` ``t_ns``, no payload field named ``t_ms``,
    and exactly one ``"t_ms":`` in the line, so that it is the time's key.
    Any other line renders through the generic encoder.
    """

    def __init__(
        self,
        target: Union[str, IO[str]],
        topics: Optional[Sequence[str]] = None,
    ):
        if topics is not None:
            self.topics = tuple(topics)
        self._stream, self._owns_stream = _open_target(target)
        self._closed = False
        self._pending: List[str] = []
        self.lines_written = 0

    def handle(self, event: Event) -> None:
        pending = self._pending
        pending.append(canonical_json(event_to_dict(event)) + "\n")
        self.lines_written += 1
        if len(pending) >= BATCH_LINES:
            self._stream.writelines(pending)
            pending.clear()

    def handle_shape(self, shape: Shape, t_ns: int) -> None:
        cut = shape.cut
        if cut and t_ns.__class__ is int:
            line = cut[0] + _float_repr(t_ns / 1_000_000) + cut[1]
        else:
            line = self._render(shape, t_ns)
        pending = self._pending
        pending.append(line)
        self.lines_written += 1
        if len(pending) >= BATCH_LINES:
            self._stream.writelines(pending)
            pending.clear()

    @staticmethod
    def _render(shape: Shape, t_ns: int) -> str:
        """The generic line of *shape* at *t_ns*; the first one with an
        ``int`` time also decides the shape's cut (``()`` for none)."""
        line = canonical_json(event_to_dict(
            Event(shape.topic, shape.kind, t_ns, shape.fields)))
        if shape.cut is None and t_ns.__class__ is int:
            shape.cut = ()
            if "t_ms" not in shape.fields and line.count('"t_ms":') == 1:
                cut = line.index('"t_ms":') + len('"t_ms":')
                t_repr = _float_repr(t_ns / 1_000_000)
                assert line.startswith(t_repr, cut), line
                shape.cut = (line[:cut], line[cut + len(t_repr):] + "\n")
        return line + "\n"

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            if self._pending:
                self._stream.writelines(self._pending)
                self._pending.clear()
            self._stream.flush()
        except ValueError:  # pragma: no cover - already-closed caller stream
            return
        finally:
            if self._owns_stream:
                # write_whole_file's in-place rule: cut the file to the bytes
                # written (a device or pipe has no length to set), then close.
                fd = self._stream.fileno()
                try:
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
                except OSError:
                    if stat.S_ISREG(os.fstat(fd).st_mode):
                        raise
                finally:
                    self._stream.close()


class StreamingHistogram:
    """A log2-bucketed streaming histogram: O(1) memory, deterministic.

    Values are tallied into power-of-two buckets (bucket *b* covers
    ``(2^(b-1), 2^b]``; non-positive values land in a dedicated zero
    bucket), so the summary a run produces depends only on the values
    fed in — never on their count or arrival order beyond the tallies
    themselves.  Percentiles interpolate linearly inside the covering
    bucket and clamp to the observed ``[min, max]``, which keeps small
    samples exact at the extremes and large samples within a 2× bucket
    of the true quantile.
    """

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._buckets: Dict[int, int] = {}

    @staticmethod
    def _bucket_of(value: float) -> int:
        if value <= 0:
            return -(2 ** 30)  # the zero/negative bucket, below everything
        mantissa, exponent = math.frexp(value)
        # frexp: value = mantissa * 2^exponent with mantissa in [0.5, 1).
        # Exact powers of two (mantissa 0.5) belong to the lower bucket.
        return exponent - 1 if mantissa == 0.5 else exponent

    def add(self, value: float) -> None:
        """Tally one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = self._bucket_of(value)
        self._buckets[bucket] = self._buckets.get(bucket, 0) + 1

    def merge(self, other: "StreamingHistogram") -> None:
        """Fold *other*'s tallies into this histogram."""
        self.count += other.count
        self.total += other.total
        for source in (other.min, other.max):
            if source is None:
                continue
            if self.min is None or source < self.min:
                self.min = source
            if self.max is None or source > self.max:
                self.max = source
        for bucket, tally in other._buckets.items():
            self._buckets[bucket] = self._buckets.get(bucket, 0) + tally

    def buckets(self) -> List[Tuple[int, int]]:
        """``(bucket, tally)`` pairs in ascending bucket order."""
        return sorted(self._buckets.items())

    @classmethod
    def from_state(
        cls, count: int, total: float, minimum: Optional[float],
        maximum: Optional[float], buckets: Iterable[Sequence[int]],
    ) -> "StreamingHistogram":
        """The histogram whose state is exactly the given tallies.

        The inverse of reading ``count``/``total``/``min``/``max`` and
        :meth:`buckets` off a histogram: every snapshot and merge of the
        result equals the original's.
        """
        histogram = cls()
        histogram.count = count
        histogram.total = total
        histogram.min = minimum
        histogram.max = maximum
        histogram._buckets = {bucket: tally for bucket, tally in buckets}
        return histogram

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The *q*-quantile (``q`` in [0, 1]) by bucket interpolation."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile wants q in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        assert self.min is not None and self.max is not None
        rank = q * self.count
        cumulative = 0
        for bucket in sorted(self._buckets):
            tally = self._buckets[bucket]
            if cumulative + tally >= rank:
                if bucket == self._bucket_of(0.0):
                    return max(0.0, self.min)
                low, high = 2.0 ** (bucket - 1), 2.0 ** bucket
                fraction = (rank - cumulative) / tally
                value = low + (high - low) * fraction
                return min(max(value, self.min), self.max)
            cumulative += tally
        return self.max

    def snapshot(self) -> Dict[str, float]:
        """Count/min/max/mean and fixed percentiles, JSON-safe and sorted."""
        return {
            "count": self.count,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
        }

"""Sink hardening: context managers, flush-on-error, idempotent close,
byte-stable snapshots, and the streaming histogram plane.

Complements ``test_bus.py`` (which pins the bus/sink wiring semantics);
this module pins the PR-6 hardening contract:

* every sink is a context manager whose ``__exit__`` closes — including on
  the error path, so a crashed run still flushes a valid, parseable prefix,
* ``close()`` is idempotent on the stream sinks,
* each JSONL event is a single ``write`` — an interruption between events
  never leaves a torn line,
* :meth:`CounterSink.snapshot` is byte-stable (sorted key order),
* :class:`StreamingHistogram` summarizes numeric streams at O(1) memory
  with deterministic, merge-stable percentiles.
"""

import io
import json

import pytest

from repro.core.events import ExecutionContext
from repro.obs import sinks as sinks_module
from repro.obs.bus import Event, EventBus, Shape, canonical_json, event_to_dict
from repro.obs.sinks import (
    CounterSink,
    JsonlStreamSink,
    ListSink,
    StreamingHistogram,
)


def sched_exec(t_ns=1000, dur_ns=500, thread="t0"):
    return Event("sched", "exec", t_ns, {
        "thread": thread, "dur_ns": dur_ns,
        "context": ExecutionContext.TASK,
        "energy_nj": 0.0, "label": None,
    })


class TestJsonlHardening:
    def test_context_manager_closes_owned_stream(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with JsonlStreamSink(path) as sink:
            sink.handle(sched_exec())
        assert sink._closed
        with open(path, "r", encoding="utf-8") as handle:
            assert len(handle.readlines()) == 1

    def test_flushes_on_error_path(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with pytest.raises(RuntimeError):
            with JsonlStreamSink(path) as sink:
                sink.handle(sched_exec())
                raise RuntimeError("mid-run crash")
        # The file on disk is a valid, parseable prefix.
        with open(path, "r", encoding="utf-8") as handle:
            lines = [json.loads(line) for line in handle]
        assert len(lines) == 1 and lines[0]["kind"] == "exec"

    @pytest.mark.parametrize("old_lines", [40, 1])
    def test_path_is_rewritten_in_place(self, tmp_path, old_lines):
        """An existing file keeps its size while the sink writes and holds
        exactly the new lines after close, whether the old stream was
        longer (its tail is cut) or shorter."""
        path = tmp_path / "events.jsonl"
        path.write_bytes(b"old line\n" * old_lines)
        old_size = path.stat().st_size
        events = [sched_exec(t_ns=1000 * i) for i in range(1, 4)]
        expected = "".join(
            canonical_json(event_to_dict(event)) + "\n" for event in events)
        sink = JsonlStreamSink(str(path))
        assert path.stat().st_size == old_size  # opened without truncating
        for event in events:
            sink.handle(event)
        assert path.stat().st_size == old_size  # lines still buffered
        sink.close()
        assert path.read_text(encoding="utf-8") == expected

    def test_path_is_cut_to_the_bytes_written_on_the_error_path(
            self, tmp_path, monkeypatch):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b"x" * 10_000)
        monkeypatch.setattr(sinks_module, "BATCH_LINES", 1)
        sink = JsonlStreamSink(str(path))
        sink.handle(sched_exec())  # one batch: reaches the file at flush
        real_flush = sink._stream.flush
        calls = []

        def failing_flush():
            calls.append(1)
            if len(calls) == 1:
                real_flush()
                raise OSError("disk full")

        monkeypatch.setattr(sink._stream, "flush", failing_flush)
        with pytest.raises(OSError):
            sink.close()
        [line] = path.read_text(encoding="utf-8").splitlines()
        assert json.loads(line)["kind"] == "exec"

    def test_close_is_idempotent(self, tmp_path):
        sink = JsonlStreamSink(str(tmp_path / "e.jsonl"))
        sink.handle(sched_exec())
        sink.close()
        sink.close()  # second close must not raise on the closed stream

    def test_batched_writes_are_whole_lines(self, monkeypatch):
        """Batching delays lines but every write handed to the stream is a
        run of *whole* lines, so an interruption between batch flushes
        still leaves a valid JSONL prefix on disk."""
        writes = []

        class Spy(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

            def writelines(self, lines):
                text = "".join(lines)
                writes.append(text)
                io.StringIO.write(self, text)

        monkeypatch.setattr(sinks_module, "BATCH_LINES", 2)
        spy = Spy()
        sink = JsonlStreamSink(spy)
        sink.handle(sched_exec())
        assert writes == []  # below the batch threshold: nothing written yet
        sink.handle(sched_exec(t_ns=2000))
        assert len(writes) == 1  # the batch boundary flushed both lines
        sink.handle(sched_exec(t_ns=3000))
        sink.close()  # close drains the partial batch
        assert len(writes) == 2
        for text in writes:
            assert text.endswith("\n")
            for line in text[:-1].split("\n"):
                json.loads(line)  # every write is whole JSON lines only

    def test_torn_run_leaves_valid_jsonl_prefix(self, monkeypatch):
        """Kill mid-batch: a sink abandoned without close() (the process
        died) has written only complete batches — the stream contents are
        a valid JSONL prefix of the full event sequence."""
        monkeypatch.setattr(sinks_module, "BATCH_LINES", 4)
        stream = io.StringIO()
        sink = JsonlStreamSink(stream)
        expected = []
        for index in range(11):
            event = sched_exec(t_ns=1000 * (index + 1))
            sink.handle(event)
            expected.append(canonical_json(event.to_dict()))
        # No close: simulate the process dying between batches.
        flushed = stream.getvalue()
        lines = flushed.splitlines()
        assert len(lines) == 8  # two full batches reached the stream
        assert flushed.endswith("\n")
        assert lines == expected[:8]
        for line in lines:
            json.loads(line)
        # A later close must still deliver the tail.
        sink.close()
        assert stream.getvalue().splitlines() == expected

    def test_borrowed_stream_left_open(self):
        stream = io.StringIO()
        with JsonlStreamSink(stream) as sink:
            sink.handle(sched_exec())
        assert not stream.closed
        assert stream.getvalue().count("\n") == 1

    def test_close_tolerates_caller_closed_stream(self):
        stream = io.StringIO()
        sink = JsonlStreamSink(stream)
        stream.close()
        sink.close()  # must swallow the ValueError from flush


def _exec_shape(thread="t0", context=ExecutionContext.TASK, label="task:t0",
                dur_ns=500, energy_nj=1.25):
    """An exec chunk shape as SIM_API builds one for a slice plan."""
    return Shape("sched", "exec", {
        "thread": thread, "dur_ns": dur_ns, "context": context,
        "energy_nj": energy_nj, "label": label,
    })


def _marker_shape(kind="dispatch", thread="t0"):
    return Shape("sched", kind, {"thread": thread})


class _Keeper:
    """A duck-typed sink (no :class:`Sink` base, no ``handle_shape``)."""

    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)


def _publish(publications, sinks=()):
    """Publish ``(shape, t_ns)`` pairs on a bus with a stream sink and a
    list sink attached; returns (streamed text, collected events)."""
    bus = EventBus()
    stream = io.StringIO()
    sink = bus.subscribe(JsonlStreamSink(stream))
    collected = bus.subscribe(ListSink())
    for extra in sinks:
        bus.subscribe(extra)
    for shape, t_ns in publications:
        bus.topic(shape.topic).emit_shape(shape, t_ns)
    sink.close()
    return stream.getvalue(), collected.events


def _encoded(events):
    return "".join(canonical_json(event.to_dict()) + "\n" for event in events)


class TestDeclaredShapes:
    """A shape's line renders once, byte-identical to the encoder.

    What a publisher builds shapes for is its business (see
    ``tests/core/test_slice_plans.py``); the sink trusts the shape.
    """

    def test_repeated_shapes_render_like_the_encoder(self):
        shapes = [
            _exec_shape(thread=thread, dur_ns=dur_ns)
            for thread in ("t0", "t\"1\u00e9")
            for dur_ns in (1, 500)
        ] + [_marker_shape()]
        text, events = _publish(
            (shape, t_ns)
            for t_ns in (0, 1, 999_999, 1_000_000, 123_456_789_012)
            for shape in shapes)
        assert len(events) == 25
        assert text == _encoded(events)
        assert all(len(shape.cut) == 2 for shape in shapes)

    def test_a_time_that_is_not_an_int_renders_generically(self):
        """``t_ms`` is cut as ``float.__repr__``; ``json`` spells NaN and
        the infinities otherwise, and ``True`` is no ``int`` here.  A
        non-``int`` time neither takes the cut nor uses one."""
        shape = _marker_shape()
        times = (True, 15_000.0, float("nan"), float("inf"), 16_000,
                 True, 15_000.0, float("-inf"), 17_000)
        text, events = _publish((shape, t_ns) for t_ns in times)
        assert text == _encoded(events)
        assert [event.t_ns for event in events] == list(times)
        assert len(shape.cut) == 2

    def test_a_payload_field_named_t_ms_is_never_cut(self):
        """On a generic topic a ``t_ms`` field overwrites the time, so the
        shape's line is constant and must not get later times spliced in."""
        shape = Shape("svc", "enter", {"t_ms": 1e-06, 'x"t_ms': 1e-06})
        text, events = _publish((shape, t_ns) for t_ns in (1, 2, 3))
        assert text == _encoded(events)
        assert shape.cut == ()

    def test_a_shape_renders_once_for_every_stream_sink(self, monkeypatch):
        rendered = []
        real = sinks_module.event_to_dict

        def counting(event):
            rendered.append(event.kind)
            return real(event)

        monkeypatch.setattr(sinks_module, "event_to_dict", counting)
        shape = _exec_shape()
        other_stream = io.StringIO()
        other = JsonlStreamSink(other_stream)
        text, events = _publish(((shape, t_ns) for t_ns in range(5)), [other])
        other.close()
        assert rendered == ["exec"]
        assert text == other_stream.getvalue()
        monkeypatch.undo()
        assert text == _encoded(events)

    def test_a_duck_typed_sink_gets_a_fresh_event_per_publish(self):
        shape = _exec_shape()
        keeper = _Keeper()
        text, events = _publish(((shape, t_ns) for t_ns in (10, 20)), [keeper])
        assert text == _encoded(events)
        first, second = keeper.events
        assert first is not second
        assert (first.topic, first.kind, first.t_ns) == ("sched", "exec", 10)
        assert first.fields == second.fields == shape.fields
        assert len({id(first.fields), id(second.fields), id(shape.fields)}) == 3
        first.fields["label"] = "kept and changed"
        assert shape.fields["label"] == second.fields["label"] == "task:t0"

    def test_attach_and_detach_sort_the_sinks(self):
        bus = EventBus()
        topic = bus.topic("sched")
        stream = io.StringIO()
        sink = bus.subscribe(JsonlStreamSink(stream), ("sched",))
        keeper = bus.subscribe(_Keeper(), ("sched",))
        shape = _marker_shape()
        topic.emit_shape(shape, 1_000)
        topic.detach(sink)
        sink.close()
        topic.emit_shape(shape, 2_000)
        topic.detach(keeper)
        assert not topic.enabled
        topic.emit_shape(shape, 3_000)
        assert [event.t_ns for event in keeper.events] == [1_000, 2_000]
        assert stream.getvalue() == _encoded(keeper.events[:1])


class TestCounterSnapshot:
    def test_snapshot_sorted_regardless_of_arrival(self):
        forward = CounterSink()
        backward = CounterSink()
        events = [
            Event("sched", "exec", 0, {}),
            Event("campaign", "run_start", 0, {}),
            Event("sched", "dispatch", 0, {}),
        ]
        for event in events:
            forward.handle(event)
        for event in reversed(events):
            backward.handle(event)
        assert canonical_json(forward.snapshot()) == (
            canonical_json(backward.snapshot())
        )
        assert list(forward.snapshot()) == sorted(forward.snapshot())

    def test_snapshot_keys_are_topic_slash_kind(self):
        sink = CounterSink()
        sink.handle(Event("sched", "exec", 0, {}))
        sink.handle(Event("sched", "exec", 0, {}))
        assert sink.snapshot() == {"sched/exec": 2}


class TestStreamingHistogram:
    def test_tracks_count_min_max_mean(self):
        histogram = StreamingHistogram()
        for value in (1.0, 2.0, 3.0, 10.0):
            histogram.add(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["min"] == 1.0 and snapshot["max"] == 10.0
        assert snapshot["mean"] == pytest.approx(4.0)

    def test_percentiles_clamped_to_observed_range(self):
        histogram = StreamingHistogram()
        for value in (5.0, 7.0, 9.0):
            histogram.add(value)
        assert histogram.percentile(0.0) >= 5.0
        assert histogram.percentile(1.0) <= 9.0
        assert 5.0 <= histogram.percentile(0.5) <= 9.0

    def test_order_independent(self):
        import random

        values = [float(v) for v in range(1, 200)]
        shuffled = list(values)
        random.Random(3).shuffle(shuffled)
        forward, scrambled = StreamingHistogram(), StreamingHistogram()
        for value in values:
            forward.add(value)
        for value in shuffled:
            scrambled.add(value)
        assert forward.snapshot() == scrambled.snapshot()

    def test_merge_equals_single_stream(self):
        merged, single = StreamingHistogram(), StreamingHistogram()
        left, right = StreamingHistogram(), StreamingHistogram()
        for value in (1.0, 4.0, 16.0):
            left.add(value)
            single.add(value)
        for value in (2.0, 8.0, 1000.0):
            right.add(value)
            single.add(value)
        merged.merge(left)
        merged.merge(right)
        assert merged.snapshot() == single.snapshot()

    def test_nonpositive_values_get_the_floor_bucket(self):
        histogram = StreamingHistogram()
        histogram.add(0.0)
        histogram.add(-5.0)
        histogram.add(100.0)
        assert histogram.min == -5.0
        assert histogram.percentile(0.01) == pytest.approx(0.0, abs=5.0)

    def test_empty_histogram_is_safe(self):
        histogram = StreamingHistogram()
        assert histogram.percentile(0.5) == 0.0
        assert histogram.snapshot()["count"] == 0

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            StreamingHistogram().percentile(1.5)

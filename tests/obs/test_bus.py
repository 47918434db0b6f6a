"""Unit tests for the observability bus, its sinks and the VCD helpers."""

import io
import json

import pytest

from repro.obs import (
    TOPICS,
    CounterSink,
    EventBus,
    JsonlStreamSink,
    ListSink,
    event_to_dict,
)
from repro.obs.bus import Event, Topic
from repro.sysc import Signal, SimTime, Simulator, Wait
from repro.sysc.trace import vcd_identifier


class TestTopic:
    def test_disabled_until_a_sink_attaches(self):
        bus = EventBus()
        topic = bus.topic("sched")
        assert not topic.enabled
        sink = ListSink()
        bus.subscribe(sink, ("sched",))
        assert topic.enabled
        bus.detach_all()
        assert not topic.enabled

    def test_attach_is_idempotent(self):
        topic = Topic("t")
        sink = ListSink()
        topic.attach(sink)
        topic.attach(sink)
        topic.emit("raise", 1)
        assert len(sink.events) == 1

    def test_emit_reaches_every_sink(self):
        bus = EventBus()
        first, second = ListSink(), ListSink()
        bus.subscribe(first, ("irq",))
        bus.subscribe(second, ("irq",))
        bus.topic("irq").emit("raise", 42, handler="isr0")
        assert len(first.events) == len(second.events) == 1
        assert first.events[0].kind == "raise"
        assert first.events[0].fields["handler"] == "isr0"

    def test_subscribe_uses_sink_topics_attribute(self):
        bus = EventBus()
        sink = ListSink(topics=("svc", "irq"))
        bus.subscribe(sink)
        assert bus.topic("svc").enabled and bus.topic("irq").enabled
        assert not bus.topic("sched").enabled

    def test_unknown_topic_rejected(self):
        with pytest.raises(KeyError):
            EventBus().topic("nope")

    def test_topic_namespace_is_fixed(self):
        assert set(TOPICS) == {
            "kernel", "sched", "svc", "irq", "signal", "bfm", "campaign",
        }


class TestEventToDict:
    def test_sched_marker_matches_legacy_shape(self):
        event = Event("sched", "dispatch", 2_000_000, {"thread": "a"})
        assert event_to_dict(event) == {"t_ms": 2.0, "thread": "a", "kind": "dispatch"}

    def test_generic_topic_coerces_payloads(self):
        from repro.core.events import ExecutionContext

        event = Event("svc", "enter", 1_000_000,
                      {"name": "tk_sig_sem", "ctx": ExecutionContext.TASK,
                       "when": SimTime.ms(3)})
        document = event_to_dict(event)
        assert document["topic"] == "svc"
        assert document["ctx"] == "task"
        assert document["when"] == 3.0
        json.dumps(document)  # JSON-safe


class TestCounterSink:
    def test_counts_by_topic_and_kind(self):
        bus = EventBus()
        counter = bus.subscribe(CounterSink(), ("sched", "svc"))
        bus.topic("sched").emit("dispatch", 0, thread="a")
        bus.topic("sched").emit("dispatch", 1, thread="b")
        bus.topic("svc").emit("enter", 2, name="tk_slp_tsk")
        assert counter.count(topic="sched", kind="dispatch") == 2
        assert counter.count(topic="svc") == 1
        assert counter.total() == 3


class TestJsonlStreamSink:
    def test_streams_canonical_lines(self):
        stream = io.StringIO()
        bus = EventBus()
        sink = bus.subscribe(JsonlStreamSink(stream), ("sched",))
        bus.topic("sched").emit("dispatch", 1_000_000, thread="a")
        sink.close()
        assert stream.getvalue() == '{"kind":"dispatch","t_ms":1.0,"thread":"a"}\n'
        assert sink.lines_written == 1

    def test_owns_and_closes_path_target(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlStreamSink(str(path))
        sink.handle(Event("irq", "raise", 0, {"intno": 3}))
        sink.close()
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["intno"] == 3


class TestVcdIdentifiers:
    def test_unique_and_printable_past_94_signals(self):
        identifiers = [vcd_identifier(index) for index in range(300)]
        assert len(set(identifiers)) == 300
        for identifier in identifiers:
            assert identifier
            assert all(33 <= ord(ch) <= 126 for ch in identifier)
        assert vcd_identifier(0) == "!"
        assert vcd_identifier(93) == "~"
        assert len(vcd_identifier(94)) == 2

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            vcd_identifier(-1)


class TestZeroCostFastPath:
    def test_no_sink_run_never_constructs_event_records(self, monkeypatch):
        """With no sinks attached, Topic.emit must never be reached."""
        from repro.campaign import get_scenario, run_spec

        def forbidden(self, kind, t_ns, **fields):  # pragma: no cover - trap
            raise AssertionError(
                f"Topic.emit({self.name}/{kind}) called with no sink attached"
            )

        monkeypatch.setattr(Topic, "emit", forbidden)
        result = run_spec(get_scenario("quickstart"), collect_events=False)
        assert result.metrics["context_switches"] > 0
        assert result.metrics["gantt_segments"] > 0  # counters still work

    def test_signal_settle_publishes_only_when_enabled(self):
        with Simulator("fast") as sim:
            sig = Signal("s", 0, sim)
            log = ListSink()

            def writer():
                sig.write(1)
                yield Wait(SimTime.ms(1))
                sim.obs.subscribe(log, ("signal",))
                sig.write(2)
                yield Wait(SimTime.ms(1))

            sim.register_thread("writer", writer)
            sim.run()
        assert [event.fields["new"] for event in log.events] == [2]


class TestSecondReviewRegressions:
    def test_subscribe_with_explicit_empty_topics_attaches_nothing(self):
        bus = EventBus()
        bus.subscribe(ListSink(topics=()))
        assert not any(bus.topic(name).enabled for name in TOPICS)

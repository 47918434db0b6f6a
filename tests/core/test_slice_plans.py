"""SIM_Wait slice plans and the ``sched`` shapes SIM_API declares.

``sim_wait`` resolves a budget once per T-THREAD into a slice plan; each of
the plan's chunk kinds carries the :class:`~repro.obs.bus.Shape` its exec
lines are published with, and each (thread, marker kind) has one too.  The
stream sink renders a shape's line once and trusts it after that, so the
promise is tested here, at the publisher: on every builtin every ``sched``
event is shaped and the stream equals the generic encoder's lines, as it
does for zero, NaN and infinite energies and ``str`` subclasses as label or
thread name.
"""

import io
import math

import pytest

from repro.campaign.registry import get_scenario, scenario_names
from repro.campaign.runner import run_spec
from repro.core import SimApi, SimApiError
from repro.core.etm import AnnotationTable, TimingAnnotation
from repro.core.events import ExecutionContext
from repro.core.simapi import PLAN_CAP
from repro.obs.bus import canonical_json, event_to_dict
from repro.obs.sinks import JsonlStreamSink, ListSink
from repro.sysc import SimTime, Simulator


class _Name(str):
    """A ``str`` subclass: equal to its value, but not an exact ``str``."""


class ShapeRecorder:
    """A ``sched`` sink that renders shapes: records each ``(shape,
    t_ns)`` it is handed and counts the events it gets instead."""

    topics = ("sched",)

    def __init__(self):
        self.published = []
        self.unshaped = 0

    def handle(self, event):
        self.unshaped += 1

    def handle_shape(self, shape, t_ns):
        self.published.append((shape, t_ns))


@pytest.mark.parametrize("name", scenario_names())
def test_every_builtin_streams_shapes_like_the_encoder(name):
    recorder = ShapeRecorder()
    events = ListSink(("sched",))
    stream = io.StringIO()
    sink = JsonlStreamSink(stream, ("sched",))
    run_spec(get_scenario(name), collect_events=False,
             sinks=[recorder, events, sink])
    sink.close()
    # Every sched event of a builtin is shaped: few lines render anew.
    shapes = {id(shape) for shape, _ in recorder.published}
    assert len(recorder.published) > len(shapes) > 0
    assert recorder.unshaped == 0
    assert len(events.events) == len(recorder.published)
    assert stream.getvalue() == _encoded(events.events)


def _run(bodies, tick=SimTime.ms(1), until=SimTime.ms(50), sinks=()):
    """Run one T-THREAD per ``(name, body)``; returns (api, threads,
    collected sched events, streamed sched text)."""
    sim = Simulator("slice-plans")
    api = SimApi(sim, system_tick=tick)
    events = sim.obs.subscribe(ListSink(("sched",)))
    stream = io.StringIO()
    sink = sim.obs.subscribe(JsonlStreamSink(stream, ("sched",)))
    for extra in sinks:
        sim.obs.subscribe(extra)
    threads = []
    for priority, (name, body) in enumerate(bodies, start=1):
        thread = api.create_thread(name, (lambda body=body: body(api)),
                                   priority=priority)
        api.start_thread(thread)
        threads.append(thread)
    sim.run(until)
    sink.close()
    return api, threads, events.events, stream.getvalue()


def _encoded(events):
    return "".join(canonical_json(event_to_dict(event)) + "\n" for event in events)


def _execs(events):
    return [event for event in events if event.kind == "exec"]


class TestDeclaredShapes:
    @pytest.mark.parametrize("energy_nj", [0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_zero_or_non_finite_energy_streams_like_the_encoder(self, energy_nj):
        def body(api):
            for _ in range(2):
                yield from api.sim_wait(cycles=100, energy_nj=energy_nj)

        _, _, events, text = _run([("t0", body)])
        assert len(_execs(events)) == 2
        assert text == _encoded(events)

    def test_a_str_subclass_label_streams_like_the_encoder(self):
        def body(api):
            for _ in range(2):
                yield from api.sim_wait(cycles=100, label=_Name("work"))

        _, _, events, text = _run([("t0", body)])
        assert len(_execs(events)) == 2
        assert text == _encoded(events)

    def test_a_str_subclass_thread_name_streams_like_the_encoder(self):
        def body(api):
            for _ in range(2):
                yield from api.sim_wait(cycles=100, label="work")

        _, _, events, text = _run([(_Name("t0"), body)])
        assert [event.kind for event in events] == ["dispatch", "exec", "exec"]
        assert text == _encoded(events)

    def test_a_plan_publishes_one_shape_per_chunk_kind(self):
        """A 2.5-tick budget, twice: the whole-tick chunks of both calls
        share one shape and the tails another; the marker has its own."""
        def body(api):
            for _ in range(2):
                yield from api.sim_wait(duration=SimTime.us(2500),
                                        energy_nj=5.0, label="work")

        recorder = ShapeRecorder()
        _, threads, events, text = _run([("t0", body)], sinks=[recorder])
        shapes = [shape for shape, _ in recorder.published]
        marker, tick, tail = shapes[0], shapes[1], shapes[3]
        assert shapes == [marker, tick, tick, tail, tick, tick, tail]
        assert [t_ns for _, t_ns in recorder.published] == [
            0, 0, 1_000_000, 2_000_000, 2_500_000, 3_500_000, 4_500_000]
        assert (marker.topic, marker.kind, marker.fields) == (
            "sched", "dispatch", {"thread": "t0"})
        assert threads[0]._marker_shapes == {"dispatch": marker}
        assert [(shape.kind, shape.fields) for shape in (tick, tail)] == [
            ("exec", {"thread": "t0", "dur_ns": dur_ns,
                      "context": ExecutionContext.TASK,
                      "energy_nj": energy_nj, "label": "work"})
            for dur_ns, energy_nj in ((1_000_000, 2.0), (500_000, 1.0))
        ]
        assert recorder.unshaped == 0
        assert text == _encoded(events)


class TestSlicePlanMemo:
    def test_a_budget_is_resolved_once_per_thread(self, monkeypatch):
        built = []
        real = SimApi._slice_plan

        def counting(self, thread, key, context, label):
            built.append((thread.name, key))
            return real(self, thread, key, context, label)

        monkeypatch.setattr(SimApi, "_slice_plan", counting)

        def body(api):
            for _ in range(3):
                yield from api.sim_wait(cycles=100, label="work")
            yield from api.sim_wait(cycles=100, label="other")

        api, threads, events, _ = _run([("a", body), ("b", body)])
        assert len(_execs(events)) == 8
        assert api.sim_wait_count == 8
        assert sorted(name for name, _ in built) == ["a", "a", "b", "b"]
        assert [len(thread._slice_plans) for thread in threads] == [2, 2]

    def test_argument_errors_raise_on_every_call_and_store_nothing(self):
        caught = []

        def body(api):
            for _ in range(2):
                for kwargs, error in (
                    ({}, SimApiError),
                    ({"cycles": 10, "duration": SimTime.ms(1)}, SimApiError),
                    ({"cycles": -1}, ValueError),
                    ({"duration": -5, "energy_nj": 1.0}, SimApiError),
                ):
                    try:
                        yield from api.sim_wait(**kwargs)
                    except error:
                        caught.append(sorted(kwargs))

        api, threads, _, _ = _run([("t0", body)])
        assert len(caught) == 8
        assert threads[0]._slice_plans == {}
        assert api.sim_wait_count == 0

    def test_zero_energy_budgets_are_not_memoized(self):
        """``0.0 == -0.0``, one key, but the chunks render ``0.0`` and
        ``-0.0``: each zero-energy call resolves its own plan."""
        def body(api):
            yield from api.sim_wait(cycles=100, energy_nj=0.0)
            yield from api.sim_wait(cycles=100, energy_nj=-0.0)

        _, threads, events, text = _run([("t0", body)])
        energies = [event.fields["energy_nj"] for event in _execs(events)]
        assert [math.copysign(1.0, energy) for energy in energies] == [1.0, -1.0]
        assert threads[0]._slice_plans == {}
        assert text == _encoded(events)

    def test_the_memo_is_bounded(self):
        def body(api):
            for index in range(PLAN_CAP + 5):
                yield from api.sim_wait(cycles=10, label=f"work{index}")
            yield from api.sim_wait(cycles=10, label=f"work{PLAN_CAP + 4}")

        _, threads, events, text = _run([("t0", body)])
        assert len(_execs(events)) == PLAN_CAP + 6
        assert len(threads[0]._slice_plans) == PLAN_CAP
        assert text == _encoded(events)

    def test_chunks_and_energy_match_the_budget(self):
        """CET/CEE are the chunk sums: ``energy_nj / total_ns * chunk_ns``."""
        def body(api):
            for _ in range(2):
                yield from api.sim_wait(duration=SimTime.us(2300), energy_nj=1.0)

        _, threads, events, _ = _run([("t0", body)])
        execs = _execs(events)
        rate = 1.0 / 2_300_000
        assert [event.fields["dur_ns"] for event in execs] == \
            [1_000_000, 1_000_000, 300_000] * 2
        assert [event.fields["energy_nj"] for event in execs] == \
            [rate * 1_000_000, rate * 1_000_000, rate * 300_000] * 2
        token = threads[0].token
        assert token.consumed_execution_time == SimTime.us(4600)
        assert token.consumed_execution_energy_nj == sum(
            event.fields["energy_nj"] for event in execs)


class TestKeyBudgetMemo:
    """``sim_wait_key`` resolves an annotation once per SIM_API instance."""

    def test_a_key_is_resolved_once(self):
        def body(api):
            for _ in range(3):
                yield from api.sim_wait_key("svc:tk_slp_tsk")

        api, _, events, _ = _run([("a", body), ("b", body)])
        assert api.annotations.lookups == {"svc:tk_slp_tsk": 1}
        assert list(api._key_budgets) == ["svc:tk_slp_tsk"]
        cycles = api.annotations.lookup("svc:tk_slp_tsk").cycles
        assert [event.fields["dur_ns"] for event in _execs(events)] == [
            api.timing_model.time_of(cycles).nanoseconds] * 6

    def test_a_resolution_error_raises_on_every_call(self):
        caught = []

        class NoEnergy:
            def energy_of(self, annotation):
                raise ValueError("no energy model")

        def body(api):
            api.energy_model = NoEnergy()
            for _ in range(3):
                try:
                    yield from api.sim_wait_key("svc:tk_slp_tsk")
                except ValueError:
                    caught.append(api.simulator.now_ns)

        api, _, events, _ = _run([("t0", body)])
        assert caught == [0, 0, 0]
        assert api._key_budgets == {}
        assert _execs(events) == []

    def test_a_changed_table_is_resolved_again(self):
        """An unknown key resolves to the table default, and a later
        ``annotate`` or a new table replaces a memoized budget."""
        def body(api):
            yield from api.sim_wait_key("app:unknown")
            api.annotations.annotate("app:unknown", 300)
            yield from api.sim_wait_key("app:unknown")
            api.annotations = AnnotationTable(
                {"app:unknown": TimingAnnotation(500)})
            yield from api.sim_wait_key("app:unknown")
            yield from api.sim_wait_key("app:unknown")

        api, _, events, _ = _run([("t0", body)])
        default = api.annotations.default.cycles
        assert [event.fields["dur_ns"] for event in _execs(events)] == [
            api.timing_model.time_of(cycles).nanoseconds
            for cycles in (default, 300, 500, 500)
        ]
        assert api.annotations.lookups == {"app:unknown": 1}

    def test_the_memo_is_bounded(self):
        def body(api):
            for index in range(PLAN_CAP + 5):
                yield from api.sim_wait_key(f"app:{index}")

        api, _, events, _ = _run([("t0", body)], until=SimTime.ms(500))
        assert len(_execs(events)) == PLAN_CAP + 5
        assert len(api._key_budgets) == PLAN_CAP

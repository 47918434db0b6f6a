"""Runner behaviour: determinism, state isolation, event streams."""

import json

import pytest

from repro.campaign import (
    ScenarioSpec,
    get_scenario,
    run_spec,
    scenario_names,
)
from repro.campaign.spec import SpecError
from repro.sysc import Simulator

#: Cheap scenarios that cover all three kernels and most workloads.
SMOKE_SCENARIOS = ("quickstart", "sync-tour", "rtk-round-robin",
                   "rtk-priority", "synthetic-tkernel", "synthetic-rtk")


class TestRunSpec:
    @pytest.mark.parametrize("name", SMOKE_SCENARIOS)
    def test_builtin_scenario_produces_activity(self, name):
        result = run_spec(get_scenario(name))
        assert result.metrics["context_switches"] > 0
        assert result.metrics["simulated_ms"] > 0
        assert result.events, "event stream must not be empty"

    def test_runner_restores_caller_owned_simulator(self):
        """A run leaves a simulator the caller owns as it was: its sinks
        stay attached and its processes keep running."""
        from repro.obs.sinks import ListSink
        from repro.sysc import SimTime, Wait

        log = []
        with Simulator("mine") as outer:
            events = outer.obs.subscribe(ListSink(("kernel",)))

            def body():
                yield Wait(SimTime.ms(1))
                log.append(outer.now_ns)

            outer.register_thread("p", body)
            run_spec(get_scenario("rtk-priority"))
            outer.run()
        assert log == [1_000_000]
        assert [event.kind for event in events.events][-1] == "process_end"

    def test_timed_advances_metric_counts_horizon(self):
        result = run_spec(get_scenario("quickstart"))
        assert result.metrics["timed_advances"] > 0

    def test_runner_resets_even_on_failure(self, monkeypatch):
        """A run whose build fails still closes its simulator, and the
        error is attributed to the build."""
        from repro.sweep.hooks import phase_of

        closed = []
        real_close = Simulator.close
        monkeypatch.setattr(Simulator, "close", lambda self: (
            closed.append(self.name), real_close(self)))
        # Validates, but a generated workload without tasks cannot compose.
        spec = ScenarioSpec(name="no-tasks", workload="generated")
        with pytest.raises(SpecError) as failure:
            run_spec(spec)
        assert phase_of(failure.value) == "build"
        assert closed == ["no-tasks"]

    def test_metrics_shape(self):
        result = run_spec(get_scenario("quickstart"))
        metrics = result.metrics
        assert metrics["scenario"] == "quickstart"
        assert metrics["kernel"] == "tkernel"
        assert 0.0 <= metrics["cpu_utilization"] <= 1.0
        assert metrics["energy_mj"] > 0
        assert metrics["syscall_total"] == sum(metrics["syscalls"].values())
        assert metrics["workload_metrics"]["produced"] == 5
        # timing is separated from the deterministic section
        assert "wall_clock_seconds" not in metrics
        assert result.timing["wall_clock_seconds"] >= 0

    def test_events_are_time_ordered_and_jsonl_safe(self):
        result = run_spec(get_scenario("sync-tour"))
        times = [event["t_ms"] for event in result.events]
        assert times == sorted(times)
        for event in result.events:
            line = json.dumps(event)
            assert json.loads(line) == event

    def test_collect_events_can_be_disabled(self):
        result = run_spec(get_scenario("quickstart"), collect_events=False)
        assert result.events == []
        assert result.metrics["context_switches"] > 0


class TestDeterminism:
    def test_same_spec_and_seed_is_byte_identical(self):
        first = run_spec(get_scenario("synthetic-tkernel"))
        second = run_spec(get_scenario("synthetic-tkernel"))
        assert first.metrics_json() == second.metrics_json()
        assert first.events == second.events

    def test_different_seed_changes_synthetic_workload(self):
        base = get_scenario("synthetic-rtk")
        other = get_scenario("synthetic-rtk").with_overrides({"seed": 999})
        first = run_spec(base)
        second = run_spec(other)
        assert first.metrics_json() != second.metrics_json()

    def test_back_to_back_runs_do_not_interfere(self):
        solo = run_spec(get_scenario("quickstart")).metrics_json()
        run_spec(get_scenario("rtk-priority"))
        after_other = run_spec(get_scenario("quickstart")).metrics_json()
        assert solo == after_other


class TestRegistry:
    def test_every_builtin_spec_validates(self):
        for name in scenario_names():
            spec = get_scenario(name)
            assert spec.validate() is spec

    def test_get_scenario_returns_fresh_copies(self):
        first = get_scenario("quickstart")
        first.duration_ms = 1.0
        assert get_scenario("quickstart").duration_ms == 50.0

    def test_synthetic_task_sets_depend_only_on_seed(self):
        from repro.workload.builtins import SyntheticWorkload

        spec_a = ScenarioSpec(name="a", workload="synthetic", seed=5)
        spec_b = ScenarioSpec(name="b", workload="synthetic", seed=5)
        assert SyntheticWorkload.task_set(spec_a) == SyntheticWorkload.task_set(spec_b)


class TestEventStreaming:
    def test_streamed_jsonl_is_byte_identical_to_collected_events(self):
        import io

        from repro.campaign.metrics import canonical_json

        spec = get_scenario("rtk-round-robin")
        collected = run_spec(spec)
        stream = io.StringIO()
        streamed = run_spec(spec, collect_events=False, events_stream=stream)
        assert streamed.events == []  # bounded memory: nothing materialized
        assert streamed.events_streamed == len(collected.events)
        assert stream.getvalue().splitlines() == [
            canonical_json(event) for event in collected.events
        ]

    def test_streaming_to_a_path_matches_write_events(self, tmp_path):
        spec = get_scenario("quickstart")
        collected = run_spec(spec)
        streamed_path = tmp_path / "streamed.jsonl"
        run_spec(spec, collect_events=False, events_stream=str(streamed_path))
        assert streamed_path.read_bytes() == collected.events_jsonl

    def test_caller_chart_sees_the_build_and_matches_the_stream(self):
        """A GanttChart passed as a caller sink is subscribed before the
        build: it holds rtk-priority's build-time dispatch of ``logger`` at
        t=0 and holds exactly the run's streamed ``sched`` documents."""
        from repro.core.gantt import GanttChart, GanttMarker
        from repro.sysc import SimTime

        def ns(t_ms):
            return round(t_ms * 1_000_000)

        chart = GanttChart()
        result = run_spec(get_scenario("rtk-priority"), sinks=[chart])
        assert chart.markers[0] == GanttMarker(SimTime(0), "logger", "dispatch")
        assert [(m.time.to_ns(), m.thread, m.kind) for m in chart.markers] == [
            (ns(d["t_ms"]), d["thread"], d["kind"])
            for d in result.events if d["kind"] != "exec"
        ]
        assert [
            (s.start.to_ns(), s.end.to_ns() - s.start.to_ns(), s.thread,
             s.context.value, s.energy_nj, s.label)
            for s in chart.segments
        ] == [
            (ns(d["t_ms"]), ns(d["dur_ms"]), d["thread"], d["context"],
             d["energy_nj"], d["label"])
            for d in result.events if d["kind"] == "exec"
        ]
        assert len(chart.markers) == result.metrics["gantt_markers"]
        assert len(chart.segments) == result.metrics["gantt_segments"]

    def test_extra_sinks_ride_along_and_detach(self):
        from repro.obs import CounterSink, ListSink

        counter = CounterSink(topics=("sched", "svc", "campaign"))
        log = ListSink(topics=("sched",))
        result = run_spec(get_scenario("quickstart"), sinks=[counter, log])
        assert counter.count(topic="sched", kind="dispatch") == \
            result.metrics["context_switches"]
        assert counter.count(topic="svc", kind="enter") == \
            result.metrics["syscall_total"]
        assert counter.count(topic="campaign", kind="run_start") == 1
        assert counter.count(topic="campaign", kind="run_end") == 1
        assert [event.kind for event in log.events].count("dispatch") == \
            result.metrics["context_switches"]

    def test_gantt_counters_survive_detached_gantt(self):
        result = run_spec(get_scenario("quickstart"))
        assert result.metrics["gantt_segments"] > 0
        assert result.metrics["gantt_markers"] > 0
        exec_events = [e for e in result.events if e["kind"] == "exec"]
        assert len(exec_events) == result.metrics["gantt_segments"]
        assert len(result.events) - len(exec_events) == result.metrics["gantt_markers"]

    def test_extra_sinks_see_pre_build_events_too(self):
        """rtk builders dispatch at build time; caller sinks must not miss it."""
        from repro.obs import CounterSink

        counter = CounterSink(topics=("sched",))
        result = run_spec(get_scenario("rtk-priority"), sinks=[counter])
        assert counter.count(kind="dispatch") == result.metrics["context_switches"]
        assert counter.total() == len(result.events)

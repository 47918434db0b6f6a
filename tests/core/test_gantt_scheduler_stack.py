"""Unit tests for the Gantt chart, schedulers, SIM_Stack, SIM_HashTB and the
kernel timer queue."""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.trace import ExecutionTraceReport
from repro.core import (
    GanttChart,
    GanttSegment,
    PriorityScheduler,
    RoundRobinScheduler,
    SimApi,
    SimStack,
)
from repro.core.events import ExecutionContext
from repro.core.gantt import GanttMarker
from repro.sysc import SimTime, Simulator
from repro.tkernel.timemgmt import TimeManager


def make_threads(count, priorities=None):
    """Create dormant T-THREADs without running the simulator."""
    api = SimApi(Simulator("unit"))
    threads = []
    for index in range(count):
        priority = priorities[index] if priorities else 10
        threads.append(api.create_thread(f"t{index}", lambda: iter(()), priority=priority))
    return api, threads


class TestGanttChart:
    def test_busy_time_and_energy_per_thread(self):
        chart = GanttChart()
        chart.segments.append(GanttSegment("a", SimTime.ms(0), SimTime.ms(2),
                                           ExecutionContext.TASK, 10.0))
        chart.segments.append(GanttSegment("a", SimTime.ms(5), SimTime.ms(6),
                                           ExecutionContext.BFM_ACCESS, 5.0))
        chart.segments.append(GanttSegment("b", SimTime.ms(2), SimTime.ms(5),
                                           ExecutionContext.TASK, 7.0))
        assert sum(s.duration.to_ns() for s in chart.segments_of("a")) == \
            SimTime.ms(3).to_ns()
        assert chart.energy_of("a") == pytest.approx(15.0)
        assert chart.threads() == ["a", "b"]
        assert chart.end_time() == SimTime.ms(6)

    def test_overlap_detection(self):
        chart = GanttChart()
        chart.segments.append(GanttSegment("a", SimTime.ms(0), SimTime.ms(3),
                                           ExecutionContext.TASK))
        chart.segments.append(GanttSegment("b", SimTime.ms(2), SimTime.ms(4),
                                           ExecutionContext.TASK))
        assert len(chart.overlapping_segments()) == 1

    def test_render_contains_patterns_and_legend(self):
        chart = GanttChart()
        chart.segments.append(GanttSegment("task", SimTime.ms(0), SimTime.ms(5),
                                           ExecutionContext.TASK))
        chart.segments.append(GanttSegment("isr", SimTime.ms(5), SimTime.ms(6),
                                           ExecutionContext.HANDLER))
        art = chart.render(0, SimTime.ms(10), columns=20)
        assert "#" in art and "H" in art and "legend:" in art

    def test_markers_filter_by_kind(self):
        chart = GanttChart()
        chart.markers.append(GanttMarker(SimTime.ms(1), "a", "dispatch"))
        chart.markers.append(GanttMarker(SimTime.ms(2), "a", "preempt"))
        chart.markers.append(GanttMarker(SimTime.ms(3), "b", "preempt"))
        report = ExecutionTraceReport(chart, 0, SimTime.ms(10))
        assert report.marker_counts("dispatch") == {"a": 1}
        assert report.marker_counts("preempt") == {"a": 1, "b": 1}

    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 10)), max_size=30))
    def test_busy_time_equals_sum_of_durations(self, spans):
        chart = GanttChart()
        total = 0
        for start, length in spans:
            chart.segments.append(GanttSegment("x", SimTime.ms(start),
                                               SimTime.ms(start + length),
                                               ExecutionContext.TASK))
            total += length
        busy = ExecutionTraceReport(chart).time_by_context("x")
        assert busy == ({ExecutionContext.TASK: float(total)} if spans else {})


class TestSchedulers:
    def test_priority_scheduler_orders_by_priority_then_fifo(self):
        api, threads = make_threads(4, priorities=[20, 5, 20, 1])
        scheduler = PriorityScheduler()
        for thread in threads:
            scheduler.add_ready(thread)
        order = [scheduler.pop_next().name for _ in range(4)]
        assert order == ["t3", "t1", "t0", "t2"]

    def test_priority_scheduler_head_insertion(self):
        api, threads = make_threads(2, priorities=[10, 10])
        scheduler = PriorityScheduler()
        scheduler.add_ready(threads[0])
        scheduler.add_ready_first(threads[1])
        assert scheduler.select_next() is threads[1]

    def test_priority_scheduler_should_preempt(self):
        api, threads = make_threads(2, priorities=[10, 5])
        scheduler = PriorityScheduler()
        assert scheduler.should_preempt(threads[0], threads[1])
        assert not scheduler.should_preempt(threads[1], threads[0])
        assert scheduler.should_preempt(None, threads[0])

    def test_priority_out_of_range_rejected(self):
        api, threads = make_threads(1)
        threads[0].priority = 9999
        with pytest.raises(ValueError):
            PriorityScheduler().add_ready(threads[0])

    def test_round_robin_is_fifo_and_never_preempts(self):
        api, threads = make_threads(3, priorities=[1, 50, 20])
        scheduler = RoundRobinScheduler()
        for thread in threads:
            scheduler.add_ready(thread)
        assert scheduler.pop_next() is threads[0]
        assert not scheduler.should_preempt(threads[1], threads[2])

    def test_remove_is_idempotent(self):
        api, threads = make_threads(1)
        for scheduler in (PriorityScheduler(), RoundRobinScheduler()):
            scheduler.add_ready(threads[0])
            scheduler.remove(threads[0])
            scheduler.remove(threads[0])
            assert scheduler.select_next() is None

    @given(st.lists(st.integers(1, 140), min_size=1, max_size=25))
    def test_priority_pop_order_is_sorted(self, priorities):
        api, threads = make_threads(len(priorities), priorities=priorities)
        scheduler = PriorityScheduler()
        for thread in threads:
            scheduler.add_ready(thread)
        popped = []
        while True:
            thread = scheduler.pop_next()
            if thread is None:
                break
            popped.append(thread.priority)
        assert popped == sorted(priorities)


class TestSimStack:
    def test_push_pop_tracks_nesting(self):
        stack = SimStack()
        stack.push("task", "isr1", SimTime.ms(1))
        stack.push("isr1", "isr2", SimTime.ms(2))
        assert stack.depth == 2
        assert stack.current_handler() == "isr2"
        frame = stack.pop()
        assert frame.handler == "isr2" and frame.interrupted == "isr1"
        assert stack.max_observed_depth == 2

    def test_underflow_and_overflow(self):
        stack = SimStack(max_depth=1)
        with pytest.raises(IndexError):
            stack.pop()
        stack.push(None, "isr", SimTime(0))
        with pytest.raises(OverflowError):
            stack.push("isr", "isr2", SimTime(0))

    def test_empty_queries(self):
        stack = SimStack()
        assert stack.is_empty() and not stack.in_interrupt()
        assert stack.current_handler() is None
        with pytest.raises(IndexError):
            stack.peek()

    @given(st.lists(st.booleans(), max_size=60))
    def test_depth_never_negative(self, pushes):
        stack = SimStack()
        for push in pushes:
            if push:
                stack.push(None, "h", SimTime(0))
            elif stack.depth:
                stack.pop()
        assert stack.depth >= 0
        assert stack.max_observed_depth >= stack.depth


class TestSimHashTB:
    def test_duplicate_registration_rejected(self):
        api, threads = make_threads(1)
        with pytest.raises(KeyError):
            api.hashtb.register(threads[0])

    def test_lookup_by_id_and_name(self):
        api, threads = make_threads(2)
        assert api.hashtb.get(threads[0].tid) is threads[0]
        with pytest.raises(KeyError):
            api.hashtb.get(999)
        with pytest.raises(KeyError, match="name 't1'"):
            api.hashtb.register(SimpleNamespace(tid=999, name="t1"))

    def test_unregister(self):
        api, threads = make_threads(1)
        api.hashtb.unregister(threads[0])
        assert len(api.hashtb) == 0


class TestTimeManager:
    def test_after_and_process_due(self):
        manager = TimeManager()
        fired = []
        manager.after_ms(SimTime(0), 5, lambda: fired.append("a"))
        manager.after_ms(SimTime(0), 10, lambda: fired.append("b"))
        assert manager.process_due(SimTime.ms(5)) == 1
        assert fired == ["a"]
        assert manager.process_due(SimTime.ms(20)) == 1
        assert fired == ["a", "b"]

    def test_cancel_prevents_firing(self):
        manager = TimeManager()
        fired = []
        handle = manager.after_ms(SimTime(0), 5, lambda: fired.append("x"))
        manager.cancel(handle)
        manager.process_due(SimTime.ms(10))
        assert fired == []

    def test_system_time_offset(self):
        manager = TimeManager()
        for _ in range(10):
            manager.advance_tick()
        manager.set_system_time(1000)
        assert manager.get_system_time() == 1000
        manager.advance_tick()
        assert manager.get_system_time() == 1001
        assert manager.get_operation_time() == 11

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            TimeManager().after(SimTime(0), SimTime(-1), lambda: None)

    @given(st.lists(st.integers(0, 100), max_size=30))
    def test_all_events_fire_by_horizon(self, delays):
        manager = TimeManager()
        fired = []
        for delay in delays:
            manager.after_ms(SimTime(0), delay, lambda d=delay: fired.append(d))
        manager.process_due(SimTime.ms(200))
        assert sorted(fired) == sorted(delays)

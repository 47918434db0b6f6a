"""Unit tests for the DES kernel, events and processes."""

import pytest

from repro.sysc import (
    Clock,
    SCEvent,
    SCModule,
    Signal,
    SimTime,
    Simulator,
    SimulationError,
    Wait,
    WaitDelta,
    WaitEvent,
    WaitEventTimeout,
)
from repro.obs.sinks import ListSink
from repro.sysc.process import ProcessState, ResumeReason


@pytest.fixture
def sim():
    return Simulator("test")


class TestBasicScheduling:
    def test_single_process_advances_time(self, sim):
        log = []

        def body():
            log.append(("start", sim.now.to_ms()))
            yield Wait(SimTime.ms(5))
            log.append(("after", sim.now.to_ms()))

        sim.register_thread("p", body)
        sim.run()
        assert log == [("start", 0.0), ("after", 5.0)]

    def test_two_processes_interleave_by_time(self, sim):
        log = []

        def slow():
            yield Wait(SimTime.ms(10))
            log.append("slow")

        def fast():
            yield Wait(SimTime.ms(1))
            log.append("fast")

        sim.register_thread("slow", slow)
        sim.register_thread("fast", fast)
        sim.run()
        assert log == ["fast", "slow"]

    def test_run_with_duration_limits_time(self, sim):
        def body():
            while True:
                yield Wait(SimTime.ms(1))

        sim.register_thread("ticker", body)
        end = sim.run(SimTime.ms(10))
        assert end == SimTime.ms(10)

    def test_run_without_processes_finishes_immediately(self, sim):
        assert sim.run() == SimTime(0)

    def test_stop_halts_simulation(self, sim):
        reached = []

        def body():
            yield Wait(SimTime.ms(1))
            sim.stop()
            yield Wait(SimTime.ms(100))
            reached.append("should not happen")

        sim.register_thread("p", body)
        sim.run()
        assert sim.now == SimTime.ms(1)
        assert reached == []

    def test_stop_hands_the_rest_of_its_batch_to_the_next_run(self, sim):
        log = []

        def ticker(name):
            def body():
                while True:
                    yield Wait(SimTime(10))
                    log.append((name, sim.now_ns))
            return body

        processes = [sim.register_thread(name, ticker(name)) for name in "abc"]
        sim.schedule_callback(10, sim.stop)
        assert sim.run() == SimTime(10)
        assert log == [("a", 10)]
        assert [p.state for p in processes[1:]] == [ProcessState.READY] * 2
        sim.run(SimTime(0))
        assert log == [("a", 10), ("b", 10), ("c", 10)]
        assert {p.state for p in processes} == {ProcessState.WAITING}

    def test_duplicate_process_name_rejected(self, sim):
        sim.register_thread("p", lambda: iter(()))
        with pytest.raises(SimulationError):
            sim.register_thread("p", lambda: iter(()))

    def test_process_termination_marks_state(self, sim):
        def body():
            yield Wait(SimTime.ms(1))

        handle = sim.register_thread("p", body)
        sim.run()
        assert handle.state is ProcessState.TERMINATED

    def test_get_process_by_name(self, sim):
        handle = sim.register_thread("named", lambda: iter(()))
        assert sim.get_process("named") is handle
        with pytest.raises(SimulationError):
            sim.get_process("missing")


class TestEvents:
    def test_event_wakes_waiter(self, sim):
        event = sim.create_event("go")
        log = []

        def waiter():
            yield WaitEvent(event)
            log.append(sim.now.to_ms())

        def notifier():
            yield Wait(SimTime.ms(3))
            event.notify()

        sim.register_thread("waiter", waiter)
        sim.register_thread("notifier", notifier)
        sim.run()
        assert log == [3.0]

    def test_timed_notification(self, sim):
        event = sim.create_event("go")
        log = []

        def waiter():
            yield WaitEvent(event)
            log.append(sim.now.to_ms())

        def notifier():
            event.notify_after(SimTime.ms(7))
            return
            yield  # pragma: no cover

        sim.register_thread("waiter", waiter)
        sim.register_thread("notifier", notifier)
        sim.run()
        assert log == [7.0]

    def test_earlier_notification_overrides_later(self, sim):
        event = sim.create_event("go")
        times = []

        def waiter():
            yield WaitEvent(event)
            times.append(sim.now.to_ms())

        def notifier():
            event.notify_after(SimTime.ms(10))
            event.notify_after(SimTime.ms(2))  # earlier wins
            return
            yield  # pragma: no cover

        sim.register_thread("waiter", waiter)
        sim.register_thread("notifier", notifier)
        sim.run()
        assert times == [2.0]

    def test_cancel_prevents_notification(self, sim):
        event = sim.create_event("go")
        woke = []

        def waiter():
            yield WaitEventTimeout(event, SimTime.ms(20))
            woke.append(sim.now.to_ms())

        def canceller():
            event.notify_after(SimTime.ms(5))
            yield Wait(SimTime.ms(1))
            event.cancel()

        sim.register_thread("waiter", waiter)
        sim.register_thread("canceller", canceller)
        sim.run()
        # The waiter should only wake at the 20 ms timeout.
        assert woke == [20.0]

    def test_wait_with_timeout_reports_reason(self, sim):
        event = sim.create_event("never")
        reasons = []

        def waiter():
            reason = yield WaitEventTimeout(event, SimTime.ms(4))
            reasons.append(reason)

        sim.register_thread("waiter", waiter)
        sim.run()
        assert reasons == [ResumeReason.TIMEOUT]

    def test_event_arrival_beats_timeout(self, sim):
        event = sim.create_event("go")
        reasons = []

        def waiter():
            reason = yield WaitEventTimeout(event, SimTime.ms(50))
            reasons.append((reason, sim.now.to_ms()))

        def notifier():
            yield Wait(SimTime.ms(2))
            event.notify()

        sim.register_thread("waiter", waiter)
        sim.register_thread("notifier", notifier)
        sim.run()
        assert reasons == [(ResumeReason.EVENT, 2.0)]
        # Timeout callback should not resurrect the process later.
        assert sim.now >= SimTime.ms(50) or not sim.pending_activity()

    def test_delta_notification_same_time(self, sim):
        event = sim.create_event("go")
        log = []

        def waiter():
            yield WaitEvent(event)
            log.append(("woke", sim.now.to_ns()))

        def notifier():
            event.notify_delta()
            log.append(("notified", sim.now.to_ns()))
            return
            yield  # pragma: no cover

        sim.register_thread("waiter", waiter)
        sim.register_thread("notifier", notifier)
        sim.run()
        assert ("woke", 0) in log and ("notified", 0) in log

    def test_bare_event_yield_is_wait_event(self, sim):
        event = sim.create_event("go")
        log = []

        def waiter():
            yield event
            log.append(sim.now.to_ms())

        def notifier():
            yield Wait(SimTime.ms(1))
            event.notify()

        sim.register_thread("w", waiter)
        sim.register_thread("n", notifier)
        sim.run()
        assert log == [1.0]


class TestStaticSensitivity:
    def test_dont_initialize_waits_for_sensitivity(self, sim):
        tick = sim.create_event("tick")
        log = []

        def reactor():
            while True:
                log.append(sim.now.to_ms())
                yield None  # wait on static sensitivity

        def ticker():
            for _ in range(3):
                yield Wait(SimTime.ms(2))
                tick.notify()

        sim.register_thread("reactor", reactor, sensitivity=tick, dont_initialize=True)
        sim.register_thread("ticker", ticker)
        sim.run()
        assert log == [2.0, 4.0, 6.0]

    def test_empty_static_sensitivity_is_an_error(self, sim):
        def body():
            yield None

        sim.register_thread("p", body)
        with pytest.raises(SimulationError):
            sim.run()

    def test_a_wake_by_one_static_event_leaves_the_others(self, sim):
        """Woken by ``e0``, a process sensitive to ``e0`` and ``e1`` must
        not stay subscribed to ``e1``: a later ``e1`` notification woke it
        out of an unrelated timed wait (found by the reference-kernel
        oracle)."""
        e0, e1 = sim.create_event("e0"), sim.create_event("e1")
        log = []

        def reactor():
            reason = yield None
            log.append((sim.now_ns, reason))
            reason = yield Wait(SimTime(100))
            log.append((sim.now_ns, reason))

        def notifier():
            yield Wait(SimTime(10))
            e0.notify()
            yield Wait(SimTime(10))
            e1.notify()

        sim.register_thread("reactor", reactor, sensitivity=[e0, e1])
        sim.register_thread("notifier", notifier)
        sim.run()
        assert log == [(10, ResumeReason.EVENT), (110, ResumeReason.TIME)]
        assert (e0._waiting, e1._waiting) == ([], [])


class TestDeltaCycles:
    def test_wait_delta_runs_same_time(self, sim):
        log = []

        def body():
            log.append(sim.delta_count)
            yield WaitDelta()
            log.append(sim.delta_count)
            assert sim.now == SimTime(0)

        sim.register_thread("p", body)
        sim.run()
        assert log[1] > log[0]

    def test_zero_duration_wait_is_delta(self, sim):
        def body():
            yield Wait(SimTime(0))
            assert sim.now == SimTime(0)

        sim.register_thread("p", body)
        sim.run()


class TestDynamicProcessCreation:
    def test_process_created_during_run(self, sim):
        log = []

        def child():
            yield Wait(SimTime.ms(1))
            log.append(("child", sim.now.to_ms()))

        def parent():
            yield Wait(SimTime.ms(2))
            sim.register_thread("child", child)
            yield Wait(SimTime.ms(5))
            log.append(("parent", sim.now.to_ms()))

        sim.register_thread("parent", parent)
        sim.run()
        assert ("child", 3.0) in log
        assert ("parent", 7.0) in log


class TestErrorHandling:
    def test_invalid_wait_request_raises(self, sim):
        def body():
            yield "not a wait request"

        sim.register_thread("p", body)
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_callback_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_callback(SimTime(-1), lambda: None)

    @pytest.mark.parametrize("construct", [
        lambda: SCEvent("e"),
        lambda: Signal("s", 0),
        lambda: Clock("clk", SimTime.ms(1)),
        lambda: SCModule("m"),
    ], ids=["SCEvent", "Signal", "Clock", "SCModule"])
    def test_construction_needs_its_simulator(self, construct):
        with pytest.raises(TypeError):
            construct()


class TestCurrentSimulatorLifecycle:
    def test_repeated_runs_do_not_leak_state(self):
        for expected in (3.0, 7.0):
            with Simulator("run") as sim:

                def body(expected=expected):
                    yield Wait(SimTime.ms(expected))

                sim.register_thread("p", body)
                assert sim.run().to_ms() == expected
                assert sim.stats()["processes"] == 1.0

    def test_advance_hooks_observe_time(self):
        times = []
        with Simulator("hooked") as sim:
            sim.advance_hooks.append(lambda s, when: times.append(when.to_ms()))

            def body():
                yield Wait(SimTime.ms(2))
                yield Wait(SimTime.ms(3))

            sim.register_thread("p", body)
            sim.run()
        assert times == [2.0, 5.0]

    def test_advance_hooks_fire_for_the_run_horizon(self):
        times = []
        with Simulator("horizon") as sim:
            sim.advance_hooks.append(lambda s, when: times.append(when.to_ms()))

            def body():
                yield Wait(SimTime.ms(10))

            sim.register_thread("p", body)
            sim.run(SimTime.ms(50))
        assert times == [10.0, 50.0]

    def test_advance_count_matches_the_hooks_without_one(self):
        times = []
        with Simulator("hooked") as hooked, Simulator("bare") as bare:
            hooked.advance_hooks.append(
                lambda s, when: times.append(when.to_ms()))
            for sim in (hooked, bare):
                def body():
                    yield Wait(SimTime.ms(2))
                    yield Wait(SimTime.ms(3))

                sim.register_thread("p", body)
                sim.run(SimTime.ms(20))
        assert times == [2.0, 5.0, 20.0]
        assert hooked.advance_count == bare.advance_count == 3


class TestThrowInto:
    """Edge cases of throwing an exception into a waiting process."""

    class Kill(Exception):
        pass

    def test_throw_into_process_on_static_sensitivity(self, sim):
        trigger = sim.create_event("trigger")
        log = []

        def body():
            try:
                while True:
                    yield None  # static sensitivity wait
                    log.append("woke")
            except TestThrowInto.Kill:
                log.append("killed")

        process = sim.register_thread("static", body, sensitivity=trigger)

        def killer():
            yield Wait(SimTime.ms(1))
            sim.throw_into(process, TestThrowInto.Kill())
            # The process must be fully detached from its sensitivity list.
            assert trigger._waiting == []
            trigger.notify()
            yield Wait(SimTime.ms(1))

        sim.register_thread("killer", killer)
        sim.run()
        assert log == ["killed"]
        assert process.state is ProcessState.TERMINATED

    def test_throw_while_timeout_pending_does_not_resurrect(self, sim):
        event = sim.create_event("never")
        log = []

        def body():
            try:
                reason = yield WaitEventTimeout(event, SimTime.ms(5))
                log.append(("resumed", reason))
            except TestThrowInto.Kill:
                log.append("killed")

        process = sim.register_thread("waiter", body)

        def killer():
            yield Wait(SimTime.ms(1))
            sim.throw_into(process, TestThrowInto.Kill())
            # Run past the original 5 ms timeout: the stale timeout entry
            # must not wake (or crash on) the terminated process.
            yield Wait(SimTime.ms(10))

        sim.register_thread("killer", killer)
        sim.run()
        assert log == ["killed"]
        assert process.state is ProcessState.TERMINATED

    def test_throw_rewait_keeps_new_wait_and_ignores_stale_timeout(self, sim):
        event = sim.create_event("never")
        log = []

        def body():
            try:
                yield WaitEventTimeout(event, SimTime.ms(5))
            except TestThrowInto.Kill:
                # Unwinding code waits again: the new wait must be honoured
                # and the *old* 5 ms timeout must not fire into it.
                reason = yield WaitEventTimeout(event, SimTime.ms(20))
                log.append(("after", sim.now.to_ms(), reason))

        process = sim.register_thread("waiter", body)

        def killer():
            yield Wait(SimTime.ms(1))
            sim.throw_into(process, TestThrowInto.Kill())

        sim.register_thread("killer", killer)
        sim.run()
        assert log == [("after", 21.0, ResumeReason.TIMEOUT)]
        assert process.state is ProcessState.TERMINATED

    def test_throw_into_never_started_process(self, sim):
        log = []

        def body():
            log.append("ran")  # pragma: no cover - must never execute
            yield Wait(SimTime.ms(1))

        victim = sim.register_thread("unborn", body)
        sim.throw_into(victim, TestThrowInto.Kill())
        assert victim.state is ProcessState.TERMINATED

        def other():
            yield Wait(SimTime.ms(1))

        sim.register_thread("other", other)
        sim.run()
        # Elaboration must not resurrect the pre-terminated process.
        assert log == []
        assert victim.state is ProcessState.TERMINATED

    def test_throw_into_running_process_rejected(self, sim):
        def body():
            with pytest.raises(SimulationError):
                sim.throw_into(sim.get_process("self"), TestThrowInto.Kill())
            yield Wait(SimTime.ms(1))

        sim.register_thread("self", body)
        sim.run()

    def test_throw_rewait_ignores_stale_plain_wait_wake(self, sim):
        log = []

        def body():
            try:
                yield Wait(SimTime.ms(5))
            except TestThrowInto.Kill:
                # The stale 5 ms wake queued for the original wait must not
                # fire into this new, longer wait.
                reason = yield Wait(SimTime.ms(20))
                log.append(("after", sim.now.to_ms(), reason))

        process = sim.register_thread("waiter", body)

        def killer():
            yield Wait(SimTime.ms(1))
            sim.throw_into(process, TestThrowInto.Kill())

        sim.register_thread("killer", killer)
        sim.run()
        assert log == [("after", 21.0, ResumeReason.TIME)]

    def test_throw_into_a_member_of_the_running_batch_does_not_resume_it(self, sim):
        """``a`` and ``b`` wake in the same batch; ``a`` throws into ``b``,
        which catches and waits on an event that never fires.  ``b`` must
        stay waiting: it is no longer ready when the batch reaches it."""
        never = sim.create_event("never")
        log = []

        def a():
            yield Wait(SimTime(10))
            sim.throw_into(sim.get_process("b"), KeyError("stop"))
            log.append(("a", sim.now_ns))

        def b():
            try:
                yield Wait(SimTime(10))
                log.append(("b woke", sim.now_ns))  # pragma: no cover
            except KeyError:
                log.append(("b caught", sim.now_ns))
                reason = yield WaitEvent(never)
                log.append(("b resumed", reason))  # pragma: no cover

        sim.register_thread("a", a)
        victim = sim.register_thread("b", b)
        sim.run()
        assert log == [("b caught", 10), ("a", 10)]
        assert victim.state is ProcessState.WAITING
        assert never._waiting == [victim]


def _kernel_stream(sim):
    """Subscribe a collector to the ``kernel`` topic of *sim*."""
    return sim.obs.subscribe(ListSink(topics=("kernel",)))


def _stream(sink):
    return [(event.kind, event.t_ns, dict(event.fields)) for event in sink.events]


class TestLoneTimedWait:
    """A lone ``Wait(d > 0)`` — the only activity left — is queued and
    drained like any other: advances, hooks, horizons and ``stop()``."""

    def test_a_wake_on_the_horizon_runs_one_past_it_waits(self, sim):
        trace = _kernel_stream(sim)
        log = []

        def ticker():
            while True:
                log.append(sim.now_ns)
                yield Wait(SimTime(10))

        process = sim.register_thread("p", ticker)
        assert sim.run(SimTime(30)) == SimTime(30)
        assert log == [0, 10, 20, 30]
        # The wake at 30 (on the horizon) runs; the one at 40, one past
        # it, waits while time advances to the horizon.
        assert sim.run(SimTime(9)) == SimTime(39)
        assert log == [0, 10, 20, 30]
        assert sim.run(SimTime(1)) == SimTime(40)
        assert log == [0, 10, 20, 30, 40]
        assert _stream(trace) == [
            ("process_start", 0, {"process": "p"}),
            ("delta", 0, {"cycle": 1, "runnable": 1}),
            ("advance", 10, {"pending": 1}),
            ("delta", 10, {"cycle": 2, "runnable": 1}),
            ("advance", 20, {"pending": 1}),
            ("delta", 20, {"cycle": 3, "runnable": 1}),
            ("advance", 30, {"pending": 1}),
            ("delta", 30, {"cycle": 4, "runnable": 1}),
            ("advance", 30, {"pending": 1}),
            ("advance", 39, {"pending": 1}),
            ("advance", 40, {"pending": 1}),
            ("delta", 40, {"cycle": 5, "runnable": 1}),
            ("advance", 40, {"pending": 1}),
        ]
        assert (sim.advance_count, sim.delta_count) == (7, 5)
        assert process.resume_count == 5

    def test_an_entry_queued_at_the_same_instant_keeps_the_queue_order(self, sim):
        trace = _kernel_stream(sim)
        log = []
        sim.schedule_callback(SimTime(10), lambda: log.append(("cb", sim.now_ns)))
        sim.schedule_callback(SimTime(30), lambda: log.append(("cb", sim.now_ns)))

        def body():
            reason = yield Wait(SimTime(10))
            log.append(("p", sim.now_ns, reason))
            reason = yield Wait(SimTime(10))
            log.append(("p", sim.now_ns, reason))

        sim.register_thread("p", body)
        sim.run()
        # At 10 the callback was queued first and runs first.
        assert log == [
            ("cb", 10), ("p", 10, ResumeReason.TIME),
            ("p", 20, ResumeReason.TIME), ("cb", 30),
        ]
        assert _stream(trace) == [
            ("process_start", 0, {"process": "p"}),
            ("delta", 0, {"cycle": 1, "runnable": 1}),
            ("advance", 10, {"pending": 3}),
            ("delta", 10, {"cycle": 2, "runnable": 1}),
            ("advance", 20, {"pending": 2}),
            ("delta", 20, {"cycle": 3, "runnable": 1}),
            ("process_end", 20, {"process": "p", "resumes": 3}),
            ("advance", 30, {"pending": 1}),
        ]

    def test_stop_from_the_process_leaves_its_wake_queued(self, sim):
        trace = _kernel_stream(sim)
        log = []

        def body():
            yield Wait(SimTime(5))
            log.append(sim.now_ns)
            sim.stop()
            yield Wait(SimTime(5))
            log.append(sim.now_ns)

        process = sim.register_thread("p", body)
        assert sim.run() == SimTime(5)
        assert log == [5]
        assert sim.pending_activity()
        assert process.state is ProcessState.WAITING
        assert sim.run() == SimTime(10)
        assert log == [5, 10]
        assert _stream(trace) == [
            ("process_start", 0, {"process": "p"}),
            ("delta", 0, {"cycle": 1, "runnable": 1}),
            ("advance", 5, {"pending": 1}),
            ("delta", 5, {"cycle": 2, "runnable": 1}),
            ("advance", 10, {"pending": 1}),
            ("delta", 10, {"cycle": 3, "runnable": 1}),
            ("process_end", 10, {"process": "p", "resumes": 3}),
        ]

    def test_a_raising_advance_hook_leaves_the_wake_queued(self, sim):
        trace = _kernel_stream(sim)
        log = []

        class Boom(Exception):
            pass

        def hook(simulator, when):
            if when.nanoseconds == 10 and not log:
                log.append("boom")
                raise Boom()

        sim.advance_hooks.append(hook)

        def body():
            reason = yield Wait(SimTime(10))
            log.append((sim.now_ns, reason))

        process = sim.register_thread("p", body)
        with pytest.raises(Boom):
            sim.run()
        assert sim.now_ns == 10
        assert process.state is ProcessState.WAITING
        assert sim.pending_activity()
        assert sim.run() == SimTime(10)
        assert log == ["boom", (10, ResumeReason.TIME)]
        assert process.state is ProcessState.TERMINATED
        assert process.resume_count == 2
        assert (sim.advance_count, sim.delta_count) == (2, 2)
        assert _stream(trace) == [
            ("process_start", 0, {"process": "p"}),
            ("delta", 0, {"cycle": 1, "runnable": 1}),
            ("advance", 10, {"pending": 1}),
            ("advance", 10, {"pending": 1}),
            ("delta", 10, {"cycle": 2, "runnable": 1}),
            ("process_end", 10, {"process": "p", "resumes": 2}),
        ]

    def test_a_hook_that_stops_or_writes_acts_after_the_resume(self, sim):
        """The resumed process runs before an advance hook's ``stop()`` or
        signal write takes effect, as when the wake came from the queue."""
        from repro.sysc import Signal

        signal = Signal("s", 0, sim)
        log = []

        def hook(simulator, when):
            if when.nanoseconds == 10:
                signal.write(1)
                simulator.stop()

        sim.advance_hooks.append(hook)

        def body():
            yield Wait(SimTime(10))
            log.append((sim.now_ns, signal.read()))
            yield Wait(SimTime(10))
            log.append((sim.now_ns, signal.read()))

        sim.register_thread("p", body)
        assert sim.run() == SimTime(10)
        assert log == [(10, 0)]
        assert signal.read() == 1
        sim.run()
        assert log == [(10, 0), (20, 1)]

    def test_advance_hooks_run_before_cycle_hooks(self, sim):
        order = []
        sim.advance_hooks.append(lambda s, when: order.append(("advance", when.nanoseconds)))
        sim.cycle_hooks.append(lambda s: order.append(("cycle", s.now_ns)))

        def body():
            yield Wait(SimTime(7))

        sim.register_thread("p", body)
        sim.run()
        assert order == [("cycle", 0), ("advance", 7), ("cycle", 7)]

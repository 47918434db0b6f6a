"""Tests for system time, cyclic/alarm handlers, interrupts and T-Kernel/DS."""

import pytest

from repro.core.events import ExecutionContext
from repro.sysc import SimTime, Simulator
from repro.tkernel import E_NOEXS, E_OK, E_PAR, TKernelDS, TKernelOS, TA_STA, TMO_FEVR
from tests.tkernel.conftest import run_kernel


class TestSystemTime:
    def test_set_and_get_time(self):
        results = {}

        def user_main(kernel):
            yield from kernel.tk_set_tim(1_000_000)
            yield from kernel.tk_dly_tsk(20)
            results["time"] = yield from kernel.tk_get_tim()
            results["otm"] = yield from kernel.tk_get_otm()

        run_kernel(user_main, duration_ms=60)
        assert 1_000_018 <= results["time"] <= 1_000_030
        assert 18 <= results["otm"] <= 30

    def test_negative_time_rejected(self):
        results = {}

        def user_main(kernel):
            results["set"] = yield from kernel.tk_set_tim(-5)

        run_kernel(user_main, duration_ms=10)
        assert results["set"] == E_PAR

    def test_ref_sys_reports_counts(self):
        results = {}

        def user_main(kernel):
            yield from kernel.tk_cre_sem(isemcnt=0, maxsem=1)
            results["ref"] = yield from kernel.tk_ref_sys()

        _, kernel = run_kernel(user_main, duration_ms=20)
        assert results["ref"]["booted"]
        assert results["ref"]["semaphore_count"] == 1
        assert results["ref"]["runtskid"] == kernel.initial_task_id


class TestCyclicHandlers:
    def test_periodic_activation(self):
        activations = []

        def user_main(kernel):
            def handler(exinf):
                activations.append(kernel.simulator.now.to_ms())
                yield from kernel.api.sim_wait(duration=SimTime.us(100),
                                               context=ExecutionContext.HANDLER)

            cycid = yield from kernel.tk_cre_cyc(handler, cyctim=10, name="H1",
                                                 cycatr=TA_STA)
            assert cycid > 0

        _, kernel = run_kernel(user_main, duration_ms=100)
        assert len(activations) >= 8
        gaps = [b - a for a, b in zip(activations, activations[1:])]
        assert all(8.0 <= gap <= 12.5 for gap in gaps)

    def test_start_stop(self):
        activations = []

        def user_main(kernel):
            def handler(exinf):
                activations.append(kernel.simulator.now.to_ms())
                return
                yield  # pragma: no cover

            cycid = yield from kernel.tk_cre_cyc(handler, cyctim=5, name="H1")
            ref = yield from kernel.tk_ref_cyc(cycid)
            assert ref["cycstat"] == 0
            yield from kernel.tk_sta_cyc(cycid)
            yield from kernel.tk_dly_tsk(20)
            yield from kernel.tk_stp_cyc(cycid)
            activations.append(("stopped", kernel.simulator.now.to_ms()))

        run_kernel(user_main, duration_ms=100)
        stop_marker = [a for a in activations if isinstance(a, tuple)][0]
        after_stop = [a for a in activations if not isinstance(a, tuple) and a > stop_marker[1] + 5]
        assert after_stop == []

    def test_handler_preempts_running_task(self):
        trace = []

        def user_main(kernel):
            def handler(exinf):
                trace.append(("handler", kernel.simulator.now.to_ms()))
                yield from kernel.api.sim_wait(duration=SimTime.ms(1),
                                               context=ExecutionContext.HANDLER)

            def busy(stacd, exinf):
                yield from kernel.api.sim_wait(duration=SimTime.ms(30))
                trace.append(("busy-done", kernel.simulator.now.to_ms()))

            yield from kernel.tk_cre_cyc(handler, cyctim=10, name="H1", cycatr=TA_STA)
            t = yield from kernel.tk_cre_tsk(busy, itskpri=20, name="busy")
            yield from kernel.tk_sta_tsk(t)

        _, kernel = run_kernel(user_main, duration_ms=80)
        handler_times = [t for name, t in trace if name == "handler"]
        busy_done = [t for name, t in trace if name == "busy-done"]
        # The handler ran several times while the busy task was executing,
        # and the busy task's completion was pushed out by the handler time.
        assert len(handler_times) >= 3
        assert busy_done and busy_done[0] >= 32.0
        assert kernel.api.stack.max_observed_depth >= 1

    def test_invalid_period_rejected(self):
        results = {}

        def user_main(kernel):
            def handler(exinf):
                return
                yield  # pragma: no cover

            results["bad"] = yield from kernel.tk_cre_cyc(handler, cyctim=0)

        run_kernel(user_main, duration_ms=10)
        assert results["bad"] == E_PAR


class TestAlarmHandlers:
    def test_one_shot_activation(self):
        activations = []

        def user_main(kernel):
            def handler(exinf):
                activations.append(kernel.simulator.now.to_ms())
                return
                yield  # pragma: no cover

            almid = yield from kernel.tk_cre_alm(handler, name="H2")
            yield from kernel.tk_sta_alm(almid, 15)

        run_kernel(user_main, duration_ms=80)
        assert len(activations) == 1
        assert 15.0 <= activations[0] <= 18.0

    def test_stop_disarms(self):
        activations = []

        def user_main(kernel):
            def handler(exinf):
                activations.append(kernel.simulator.now.to_ms())
                return
                yield  # pragma: no cover

            almid = yield from kernel.tk_cre_alm(handler)
            yield from kernel.tk_sta_alm(almid, 20)
            yield from kernel.tk_dly_tsk(5)
            yield from kernel.tk_stp_alm(almid)

        run_kernel(user_main, duration_ms=60)
        assert activations == []

    def test_rearming_restarts_the_countdown(self):
        activations = []

        def user_main(kernel):
            def handler(exinf):
                activations.append(kernel.simulator.now.to_ms())
                return
                yield  # pragma: no cover

            almid = yield from kernel.tk_cre_alm(handler)
            yield from kernel.tk_sta_alm(almid, 10)
            yield from kernel.tk_dly_tsk(5)
            yield from kernel.tk_sta_alm(almid, 20)  # re-arm: fires at ~25 ms

        run_kernel(user_main, duration_ms=80)
        assert len(activations) == 1
        assert activations[0] >= 24.0


class TestInterrupts:
    def test_external_interrupt_runs_isr(self):
        log = []

        def user_main(kernel):
            def isr(exinf):
                log.append(("isr", kernel.simulator.now.to_ms()))
                yield from kernel.api.sim_wait(duration=SimTime.us(300),
                                               context=ExecutionContext.HANDLER)

            def busy(stacd, exinf):
                yield from kernel.api.sim_wait(duration=SimTime.ms(20))
                log.append(("busy-done", kernel.simulator.now.to_ms()))

            yield from kernel.tk_def_int(3, isr, name="keypad_isr")
            t = yield from kernel.tk_cre_tsk(busy, itskpri=10)
            yield from kernel.tk_sta_tsk(t)

        simulator = Simulator("irq-test")
        kernel = TKernelOS(simulator, user_main=user_main)

        def externals():
            from repro.sysc.process import Wait
            yield Wait(SimTime.ms(8))
            kernel.raise_interrupt(3)
            yield Wait(SimTime.ms(5))
            kernel.raise_interrupt(3)

        simulator.register_thread("externals", externals)
        simulator.run(SimTime.ms(60))
        isr_times = [t for name, t in log if name == "isr"]
        assert len(isr_times) == 2
        assert 8.0 <= isr_times[0] <= 10.0
        [handler] = kernel.interrupts.all_handlers()
        assert handler.intno == 3
        assert handler.activation_count == 2

    def test_undefined_interrupt_is_spurious(self):
        simulator = Simulator("spurious")
        kernel = TKernelOS(simulator, user_main=None)
        simulator.run(SimTime.ms(5))
        assert kernel.raise_interrupt(42) is False
        assert kernel.interrupts.spurious_count == 1

    def test_disabled_interrupt_is_dropped(self):
        log = []

        def user_main(kernel):
            def isr(exinf):
                log.append("isr")
                return
                yield  # pragma: no cover

            yield from kernel.tk_def_int(1, isr)
            yield from kernel.tk_dis_int(1)

        simulator = Simulator("disint")
        kernel = TKernelOS(simulator, user_main=user_main)

        def externals():
            from repro.sysc.process import Wait
            yield Wait(SimTime.ms(10))
            kernel.raise_interrupt(1)

        simulator.register_thread("externals", externals)
        simulator.run(SimTime.ms(30))
        assert log == []

    def test_undefine_interrupt(self):
        results = {}

        def user_main(kernel):
            def isr(exinf):
                return
                yield  # pragma: no cover

            yield from kernel.tk_def_int(2, isr)
            results["undef"] = yield from kernel.tk_def_int(2, None)
            results["undef_again"] = yield from kernel.tk_def_int(2, None)

        run_kernel(user_main, duration_ms=20)
        assert results["undef"] == E_OK
        assert results["undef_again"] == E_NOEXS


class TestTKernelDS:
    def test_listing_contains_every_object_class(self):
        def user_main(kernel):
            def worker(stacd, exinf):
                yield from kernel.tk_slp_tsk(TMO_FEVR)

            def handler(exinf):
                return
                yield  # pragma: no cover

            yield from kernel.tk_cre_sem(isemcnt=1, maxsem=3, name="sem_a")
            yield from kernel.tk_cre_flg(iflgptn=0b101, name="flags")
            yield from kernel.tk_cre_mtx(name="lock")
            yield from kernel.tk_cre_mbx(name="mail")
            yield from kernel.tk_cre_mbf(bufsz=64, maxmsz=8, name="buffer")
            yield from kernel.tk_cre_mpf(mpfcnt=4, blfsz=32, name="fixed_pool")
            yield from kernel.tk_cre_mpl(mplsz=256, name="var_pool")
            yield from kernel.tk_cre_cyc(handler, cyctim=10, name="cyclic_h")
            yield from kernel.tk_cre_alm(handler, name="alarm_h")
            yield from kernel.tk_def_int(5, handler, name="isr5")
            t = yield from kernel.tk_cre_tsk(worker, itskpri=9, name="worker")
            yield from kernel.tk_sta_tsk(t)

        _, kernel = run_kernel(user_main, duration_ms=40)
        listing = TKernelDS(kernel).render_listing()
        for expected in ("worker", "sem_a", "flags", "lock", "mail", "buffer",
                         "fixed_pool", "var_pool", "cyclic_h", "alarm_h", "isr5",
                         "-- tasks --", "WAI"):
            assert expected in listing

    def test_snapshots_are_consistent_with_state(self):
        def user_main(kernel):
            def sleeper(stacd, exinf):
                yield from kernel.tk_slp_tsk(TMO_FEVR)

            t = yield from kernel.tk_cre_tsk(sleeper, itskpri=7, name="sleeper")
            yield from kernel.tk_sta_tsk(t)

        _, kernel = run_kernel(user_main, duration_ms=30)
        ds = TKernelDS(kernel)
        tasks = {row["name"]: row for row in ds.task_snapshot()}
        assert tasks["sleeper"]["state"] == "WAI"
        assert tasks["sleeper"]["wait"] == "SLP"
        system = ds.system_snapshot()
        assert system["task_count"] == 2
        assert system["booted"]

"""Integration tests for task management on a booted kernel."""

import pytest

from repro.sysc import Signal, SimTime, Simulator
from repro.tkernel import (
    E_CTX,
    E_ID,
    E_NOEXS,
    E_OBJ,
    E_OK,
    E_PAR,
    E_QOVR,
    E_RLWAI,
    E_TMOUT,
    TMO_FEVR,
    TMO_POL,
    TTS_DMT,
    TTS_RDY,
    TTS_RUN,
    TTS_WAI,
    TKernelOS,
)
from tests.tkernel.conftest import run_kernel


class TestBootAndInitialTask:
    def test_kernel_boots_and_runs_user_main(self):
        log = []

        def user_main(kernel):
            log.append(("main", kernel.simulator.now.to_ms()))
            return
            yield  # pragma: no cover

        _, kernel = run_kernel(user_main, duration_ms=20)
        assert kernel.booted
        assert kernel.initial_task_id is not None
        assert log and log[0][0] == "main"

    def test_boot_without_user_main(self):
        _, kernel = run_kernel(None, duration_ms=10)
        assert kernel.booted
        assert kernel.initial_task_id is None

    def test_system_time_advances_with_ticks(self):
        _, kernel = run_kernel(None, duration_ms=50)
        assert 40 <= kernel.time.get_system_time() <= 52
        assert kernel.tick_handler_runs >= 40


class TestBootOnReset:
    """Fig. 3: the Boot module sits on the reset line."""

    @staticmethod
    def _kernel(reset_level):
        simulator = Simulator("reset")
        reset = Signal("reset", reset_level, simulator)
        kernel = TKernelOS(simulator, reset_signal=reset)
        boot_cycles = kernel.api.annotations.lookup("svc:boot").cycles
        boot_ns = kernel.api.timing_model.time_of(boot_cycles).nanoseconds
        assert boot_ns > 0
        return simulator, reset, kernel, boot_ns

    def test_a_low_reset_line_holds_the_boot(self):
        simulator, _, kernel, _ = self._kernel(False)
        simulator.run(SimTime.ms(20))
        assert not kernel.booted
        assert kernel.tick_handler_runs == 0

    def test_the_kernel_boots_at_the_posedge_plus_its_boot_cost(self):
        simulator, reset, kernel, boot_ns = self._kernel(False)
        simulator.schedule_callback(SimTime.ms(7), lambda: reset.write(True))
        simulator.run(SimTime.ms(20))
        assert kernel.booted
        assert kernel.boot_time.nanoseconds == 7_000_000 + boot_ns

    def test_a_high_reset_line_boots_at_once(self):
        simulator, _, kernel, boot_ns = self._kernel(True)
        simulator.run(SimTime.ms(5))
        assert kernel.booted
        assert kernel.boot_time.nanoseconds == boot_ns


class TestTaskLifecycle:
    def test_create_start_and_run_to_completion(self):
        log = []

        def user_main(kernel):
            def worker(stacd, exinf):
                log.append(("worker", stacd, exinf))
                yield from kernel.api.sim_wait(duration=SimTime.ms(2))

            tskid = yield from kernel.tk_cre_tsk(worker, itskpri=10, name="worker",
                                                 exinf="extra")
            assert tskid > 0
            ercd = yield from kernel.tk_sta_tsk(tskid, stacd=42)
            assert ercd == E_OK

        _, kernel = run_kernel(user_main, duration_ms=30)
        assert log == [("worker", 42, "extra")]
        worker_tcb = kernel.tasks.table.get(2)
        assert worker_tcb is not None
        assert worker_tcb.is_dormant()

    def test_start_errors(self):
        results = {}

        def user_main(kernel):
            def worker(stacd, exinf):
                yield from kernel.api.sim_wait(duration=SimTime.ms(50))

            tskid = yield from kernel.tk_cre_tsk(worker, itskpri=10)
            results["bad_id"] = yield from kernel.tk_sta_tsk(999)
            yield from kernel.tk_sta_tsk(tskid)
            results["double_start"] = yield from kernel.tk_sta_tsk(tskid)

        run_kernel(user_main, duration_ms=20)
        assert results["bad_id"] == E_NOEXS
        assert results["double_start"] == E_OBJ

    def test_invalid_priority_rejected(self):
        results = {}

        def user_main(kernel):
            def worker(stacd, exinf):
                yield from kernel.api.sim_wait(duration=SimTime.ms(1))

            results["zero"] = yield from kernel.tk_cre_tsk(worker, itskpri=0)
            results["huge"] = yield from kernel.tk_cre_tsk(worker, itskpri=999)

        run_kernel(user_main, duration_ms=10)
        assert results["zero"] == E_PAR
        assert results["huge"] == E_PAR

    def test_tk_ext_tsk_ends_the_task_early(self):
        log = []

        def user_main(kernel):
            def worker(stacd, exinf):
                log.append("before")
                yield from kernel.tk_ext_tsk()
                log.append("after")  # must never run

            tskid = yield from kernel.tk_cre_tsk(worker, itskpri=10)
            yield from kernel.tk_sta_tsk(tskid)

        _, kernel = run_kernel(user_main, duration_ms=20)
        assert log == ["before"]
        assert kernel.tasks.table.get(2).is_dormant()

    def test_tk_ter_tsk_terminates_a_waiting_task(self):
        results = {}

        def user_main(kernel):
            def sleeper(stacd, exinf):
                yield from kernel.tk_slp_tsk(TMO_FEVR)

            tskid = yield from kernel.tk_cre_tsk(sleeper, itskpri=10, name="victim")
            yield from kernel.tk_sta_tsk(tskid)
            yield from kernel.tk_dly_tsk(5)
            results["terminate"] = yield from kernel.tk_ter_tsk(tskid)
            ref = yield from kernel.tk_ref_tsk(tskid)
            results["state"] = ref["state_name"]
            # A terminated (dormant) task can be started again.
            results["restart"] = yield from kernel.tk_sta_tsk(tskid)

        _, kernel = run_kernel(user_main, duration_ms=50)
        assert results["terminate"] == E_OK
        assert results["state"] == "DMT"
        assert results["restart"] == E_OK

    def test_tk_ter_tsk_of_a_task_that_never_ran(self):
        """A started task the initial task outranks has run no body: the
        termination leaves its process waiting for the next start, and
        the task is reset as a finished one would be."""
        log = []
        results = {}

        def user_main(kernel):
            def worker(stacd, exinf):
                log.append(("ran", stacd, kernel.simulator.now.to_ms()))
                yield from kernel.api.sim_wait(duration=SimTime.ms(1))

            tskid = yield from kernel.tk_cre_tsk(worker, itskpri=10)
            yield from kernel.tk_sta_tsk(tskid, 1)
            yield from kernel.tk_chg_pri(tskid, 12)
            yield from kernel.tk_wup_tsk(tskid)
            results["terminate"] = yield from kernel.tk_ter_tsk(tskid)
            ref = yield from kernel.tk_ref_tsk(tskid)
            results["ref"] = (ref["state_name"], ref["tskpri"], ref["tskbpri"],
                              ref["wupcnt"])
            results["restart"] = yield from kernel.tk_sta_tsk(tskid, 2)
            results["delay"] = yield from kernel.tk_dly_tsk(10)
            results["back_at"] = kernel.simulator.now.to_ms()

        run_kernel(user_main, duration_ms=30)
        assert results.get("delay") == E_OK
        assert [entry[:2] for entry in log] == [("ran", 2)]
        assert log[0][2] < results["back_at"] < 30
        assert results["terminate"] == results["restart"] == E_OK
        assert results["ref"] == ("DMT", 10, 10, 0)

    def test_task_deletion_requires_dormant(self):
        results = {}

        def user_main(kernel):
            def worker(stacd, exinf):
                yield from kernel.api.sim_wait(duration=SimTime.ms(30))

            tskid = yield from kernel.tk_cre_tsk(worker, itskpri=10)
            yield from kernel.tk_sta_tsk(tskid)
            results["running_delete"] = yield from kernel.tk_del_tsk(tskid)
            yield from kernel.tk_ter_tsk(tskid)
            results["dormant_delete"] = yield from kernel.tk_del_tsk(tskid)
            results["after_delete_ref"] = yield from kernel.tk_ref_tsk(tskid)

        run_kernel(user_main, duration_ms=60)
        assert results["running_delete"] == E_OBJ
        assert results["dormant_delete"] == E_OK
        assert results["after_delete_ref"] == E_NOEXS


class TestSleepWakeupDelay:
    def test_sleep_until_wakeup(self):
        log = []

        def user_main(kernel):
            def sleeper(stacd, exinf):
                ercd = yield from kernel.tk_slp_tsk(TMO_FEVR)
                log.append(("woke", kernel.simulator.now.to_ms(), ercd))

            tskid = yield from kernel.tk_cre_tsk(sleeper, itskpri=5, name="sleeper")
            yield from kernel.tk_sta_tsk(tskid)
            yield from kernel.tk_dly_tsk(10)
            yield from kernel.tk_wup_tsk(tskid)

        run_kernel(user_main, duration_ms=50)
        assert len(log) == 1
        woke_time, ercd = log[0][1], log[0][2]
        assert ercd == E_OK
        assert woke_time >= 10.0

    def test_sleep_timeout_returns_e_tmout(self):
        log = []

        def user_main(kernel):
            def sleeper(stacd, exinf):
                ercd = yield from kernel.tk_slp_tsk(tmout=5)
                log.append((kernel.simulator.now.to_ms(), ercd))

            tskid = yield from kernel.tk_cre_tsk(sleeper, itskpri=5)
            yield from kernel.tk_sta_tsk(tskid)

        run_kernel(user_main, duration_ms=40)
        assert len(log) == 1
        assert log[0][1] == E_TMOUT
        assert log[0][0] >= 5.0

    def test_queued_wakeup_satisfies_next_sleep(self):
        results = {}

        def user_main(kernel):
            def sleeper(stacd, exinf):
                yield from kernel.tk_dly_tsk(10)
                # By now a wakeup request is queued: the sleep returns at once.
                before = kernel.simulator.now.to_ms()
                ercd = yield from kernel.tk_slp_tsk(TMO_FEVR)
                results["latency"] = kernel.simulator.now.to_ms() - before
                results["ercd"] = ercd

            tskid = yield from kernel.tk_cre_tsk(sleeper, itskpri=5)
            yield from kernel.tk_sta_tsk(tskid)
            yield from kernel.tk_wup_tsk(tskid)  # task is delaying, not sleeping
            results["wupcnt"] = (yield from kernel.tk_ref_tsk(tskid))["wupcnt"]

        run_kernel(user_main, duration_ms=60)
        assert results["wupcnt"] == 1
        assert results["ercd"] == E_OK
        assert results["latency"] < 2.0

    def test_wakeup_queue_overflow(self):
        results = {}

        def user_main(kernel):
            def sleeper(stacd, exinf):
                yield from kernel.api.sim_wait(duration=SimTime.ms(80))

            tskid = yield from kernel.tk_cre_tsk(sleeper, itskpri=50)
            yield from kernel.tk_sta_tsk(tskid)
            last = E_OK
            for _ in range(10):
                last = yield from kernel.tk_wup_tsk(tskid)
            results["last"] = last
            results["cancelled"] = yield from kernel.tk_can_wup(tskid)

        run_kernel(user_main, duration_ms=30)
        assert results["last"] == E_QOVR
        assert results["cancelled"] > 0

    def test_tk_dly_tsk_duration(self):
        log = []

        def user_main(kernel):
            start = kernel.simulator.now.to_ms()
            ercd = yield from kernel.tk_dly_tsk(15)
            log.append((kernel.simulator.now.to_ms() - start, ercd))

        run_kernel(user_main, duration_ms=60)
        elapsed, ercd = log[0]
        assert ercd == E_OK
        assert 14.0 <= elapsed <= 17.0

    def test_tk_rel_wai_releases_with_e_rlwai(self):
        log = []

        def user_main(kernel):
            def sleeper(stacd, exinf):
                ercd = yield from kernel.tk_slp_tsk(TMO_FEVR)
                log.append(ercd)

            tskid = yield from kernel.tk_cre_tsk(sleeper, itskpri=5)
            yield from kernel.tk_sta_tsk(tskid)
            yield from kernel.tk_dly_tsk(5)
            yield from kernel.tk_rel_wai(tskid)

        run_kernel(user_main, duration_ms=40)
        assert log == [E_RLWAI]


class TestPriorityAndPreemption:
    def test_higher_priority_task_preempts_lower(self):
        order = []

        def user_main(kernel):
            def low(stacd, exinf):
                yield from kernel.api.sim_wait(duration=SimTime.ms(10))
                order.append(("low-done", kernel.simulator.now.to_ms()))

            def high(stacd, exinf):
                yield from kernel.api.sim_wait(duration=SimTime.ms(2))
                order.append(("high-done", kernel.simulator.now.to_ms()))

            low_id = yield from kernel.tk_cre_tsk(low, itskpri=20, name="low")
            high_id = yield from kernel.tk_cre_tsk(high, itskpri=5, name="high")
            yield from kernel.tk_sta_tsk(low_id)
            yield from kernel.tk_dly_tsk(3)
            yield from kernel.tk_sta_tsk(high_id)

        _, kernel = run_kernel(user_main, duration_ms=60)
        assert [name for name, _ in order] == ["high-done", "low-done"]
        low_tcb = kernel.tasks.table.get(2)
        assert low_tcb.thread.preemption_count >= 1

    def test_tk_chg_pri_enables_preemption(self):
        order = []

        def user_main(kernel):
            def spinner(name):
                def body(stacd, exinf):
                    yield from kernel.api.sim_wait(duration=SimTime.ms(8))
                    order.append((name, kernel.simulator.now.to_ms()))
                return body

            a = yield from kernel.tk_cre_tsk(spinner("a"), itskpri=20, name="a")
            b = yield from kernel.tk_cre_tsk(spinner("b"), itskpri=30, name="b")
            yield from kernel.tk_sta_tsk(a)
            yield from kernel.tk_sta_tsk(b)
            yield from kernel.tk_dly_tsk(2)
            # Raise b above a: b should finish first even though a started first.
            ercd = yield from kernel.tk_chg_pri(b, 10)
            assert ercd == E_OK

        run_kernel(user_main, duration_ms=60)
        assert [name for name, _ in order] == ["b", "a"]

    def test_tk_chg_pri_invalid_arguments(self):
        results = {}

        def user_main(kernel):
            def worker(stacd, exinf):
                yield from kernel.api.sim_wait(duration=SimTime.ms(5))

            tskid = yield from kernel.tk_cre_tsk(worker, itskpri=10)
            results["bad_pri"] = yield from kernel.tk_chg_pri(tskid, 9999)
            results["dormant"] = yield from kernel.tk_chg_pri(tskid, 5)

        run_kernel(user_main, duration_ms=20)
        assert results["bad_pri"] == E_PAR
        assert results["dormant"] == E_OBJ

    def test_tk_get_tid_returns_caller(self):
        results = {}

        def user_main(kernel):
            results["init"] = yield from kernel.tk_get_tid()

            def worker(stacd, exinf):
                results["worker"] = yield from kernel.tk_get_tid()
                return
                yield  # pragma: no cover

            tskid = yield from kernel.tk_cre_tsk(worker, itskpri=10)
            results["created"] = tskid
            yield from kernel.tk_sta_tsk(tskid)

        _, kernel = run_kernel(user_main, duration_ms=20)
        assert results["init"] == kernel.initial_task_id
        assert results["worker"] == results["created"]


class TestSuspendResume:
    def test_suspend_ready_task_keeps_it_off_cpu(self):
        log = []

        def user_main(kernel):
            def worker(stacd, exinf):
                yield from kernel.api.sim_wait(duration=SimTime.ms(2))
                log.append(("worker-done", kernel.simulator.now.to_ms()))

            tskid = yield from kernel.tk_cre_tsk(worker, itskpri=50, name="worker")
            yield from kernel.tk_sta_tsk(tskid)
            # The worker is lower priority, so it has not run yet: suspend it.
            ercd = yield from kernel.tk_sus_tsk(tskid)
            log.append(("suspend", ercd))
            yield from kernel.tk_dly_tsk(10)
            log.append(("before-resume", kernel.simulator.now.to_ms()))
            yield from kernel.tk_rsm_tsk(tskid)

        run_kernel(user_main, duration_ms=60)
        data = dict((k, v) for k, v in log)
        assert data["suspend"] == E_OK
        assert data["worker-done"] > data["before-resume"]

    def test_resume_without_suspend_is_error(self):
        results = {}

        def user_main(kernel):
            def worker(stacd, exinf):
                yield from kernel.api.sim_wait(duration=SimTime.ms(5))

            tskid = yield from kernel.tk_cre_tsk(worker, itskpri=30)
            yield from kernel.tk_sta_tsk(tskid)
            results["resume"] = yield from kernel.tk_rsm_tsk(tskid)

        run_kernel(user_main, duration_ms=20)
        assert results["resume"] == E_OBJ


class TestTaskReference:
    def test_ref_reports_waiting_state(self):
        results = {}

        def user_main(kernel):
            def sleeper(stacd, exinf):
                yield from kernel.tk_slp_tsk(TMO_FEVR)

            tskid = yield from kernel.tk_cre_tsk(sleeper, itskpri=5, name="sleeper")
            yield from kernel.tk_sta_tsk(tskid)
            yield from kernel.tk_dly_tsk(5)
            results["ref"] = yield from kernel.tk_ref_tsk(tskid)

        run_kernel(user_main, duration_ms=40)
        ref = results["ref"]
        assert ref["state_name"] == "WAI"
        assert ref["wait_name"] == "SLP"

    def test_ref_unknown_task(self):
        results = {}

        def user_main(kernel):
            results["ref"] = yield from kernel.tk_ref_tsk(777)

        run_kernel(user_main, duration_ms=10)
        assert results["ref"] == E_NOEXS

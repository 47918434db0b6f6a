"""``tk_exd_tsk``, ``tk_frsm_tsk`` and ``tk_ena_int``.

* ``tk_exd_tsk`` exits *and deletes* the invoking task: its id is gone
  (``tk_ref_tsk`` answers ``E_NOEXS``), the mutexes it held pass to their
  waiters, and SIM_API forgets its T-THREAD, as after ``tk_del_tsk``.
* ``tk_frsm_tsk`` clears every nested ``tk_sus_tsk`` in one call, where
  ``tk_rsm_tsk`` undoes one level; both answer ``E_OBJ`` on a task that is
  not suspended.
* ``tk_ena_int`` re-enables a line ``tk_dis_int`` disabled; an interrupt
  raised while the line is off is spurious.  Both answer ``E_NOEXS`` for a
  line with no handler.
"""

from repro.sysc import SimTime, Simulator
from repro.sysc.process import Wait
from repro.tkernel import E_NOEXS, E_OBJ, E_OK, TKernelOS

from tests.tkernel.conftest import run_kernel


class TestExitAndDelete:
    def run(self):
        log = {}

        def user_main(kernel):
            mtxid = yield from kernel.tk_cre_mtx()

            def holder(stacd, exinf):
                assert (yield from kernel.tk_loc_mtx(mtxid)) == E_OK
                log["thread"] = kernel.api.running
                yield from kernel.tk_dly_tsk(2)
                yield from kernel.tk_exd_tsk()
                log["ran_past_exd"] = True

            def waiter(stacd, exinf):
                log["waiter"] = yield from kernel.tk_loc_mtx(mtxid)
                yield from kernel.tk_slp_tsk()  # keep holding the lock

            log["tskid"] = yield from kernel.tk_cre_tsk(holder, itskpri=5)
            wait_id = yield from kernel.tk_cre_tsk(waiter, itskpri=6)
            yield from kernel.tk_sta_tsk(log["tskid"])
            yield from kernel.tk_dly_tsk(1)
            yield from kernel.tk_sta_tsk(wait_id)  # blocks on the held lock
            yield from kernel.tk_dly_tsk(10)
            log["ref"] = yield from kernel.tk_ref_tsk(log["tskid"])
            log["sta"] = yield from kernel.tk_sta_tsk(log["tskid"])
            log["owner"] = (yield from kernel.tk_ref_mtx(mtxid))["htsk"]
            log["wait_id"] = wait_id

        _, kernel = run_kernel(user_main, duration_ms=40)
        return kernel, log

    def test_the_id_is_gone(self):
        _, log = self.run()
        assert "ran_past_exd" not in log
        assert log["ref"] == E_NOEXS
        assert log["sta"] == E_NOEXS

    def test_held_mutexes_pass_to_their_waiters(self):
        _, log = self.run()
        assert log["waiter"] == E_OK
        assert log["owner"] == log["wait_id"]

    def test_sim_api_forgets_the_thread(self):
        kernel, log = self.run()
        thread = log["thread"]
        assert thread.tid not in kernel.api.hashtb
        assert thread not in kernel.api.scheduler
        assert thread.name not in kernel.api.energy_statistics()


class TestForceResume:
    def run(self, resume_service, resumes):
        log = {"ran": []}

        def user_main(kernel):
            def worker(stacd, exinf):
                log["ran"].append(kernel.simulator.now.to_ms())
                yield from ()

            tskid = yield from kernel.tk_cre_tsk(worker, itskpri=5)
            # The initial task keeps the CPU: it outranks the worker.
            yield from kernel.tk_chg_pri(0, 1)
            yield from kernel.tk_sta_tsk(tskid)
            for _ in range(3):
                assert (yield from kernel.tk_sus_tsk(tskid)) == E_OK
            log["suscnt"] = (yield from kernel.tk_ref_tsk(tskid))["suscnt"]
            log["codes"] = []
            for _ in range(resumes):
                log["codes"].append(
                    (yield from getattr(kernel, resume_service)(tskid)))
            log["after"] = (yield from kernel.tk_ref_tsk(tskid))["suscnt"]
            yield from kernel.tk_dly_tsk(5)  # let a resumed worker run
            log["ran_before_again"] = list(log["ran"])
            log["again"] = yield from getattr(kernel, resume_service)(tskid)

        run_kernel(user_main, duration_ms=20)
        return log

    def test_one_frsm_clears_every_nesting_level(self):
        log = self.run("tk_frsm_tsk", resumes=1)
        assert log["suscnt"] == 3
        assert log["codes"] == [E_OK]
        assert log["after"] == 0
        assert len(log["ran_before_again"]) == 1

    def test_rsm_clears_one_level_per_call(self):
        log = self.run("tk_rsm_tsk", resumes=2)
        assert log["codes"] == [E_OK, E_OK]
        assert log["after"] == 1
        assert log["ran_before_again"] == []
        assert log["again"] == E_OK  # the last level

    def test_frsm_of_a_task_that_is_not_suspended_is_e_obj(self):
        log = self.run("tk_frsm_tsk", resumes=1)
        assert log["again"] == E_OBJ

    def test_frsm_of_an_unknown_task_is_e_noexs(self):
        codes = {}

        def user_main(kernel):
            codes["frsm"] = yield from kernel.tk_frsm_tsk(99)

        run_kernel(user_main, duration_ms=5)
        assert codes["frsm"] == E_NOEXS


class TestEnableInterrupt:
    def test_ena_int_re_enables_a_disabled_line(self):
        log = {"isr": []}
        codes = {}

        def user_main(kernel):
            def isr(exinf):
                log["isr"].append(kernel.simulator.now.to_ms())
                yield from ()

            yield from kernel.tk_def_int(1, isr)
            codes["dis"] = yield from kernel.tk_dis_int(1)
            yield from kernel.tk_dly_tsk(10)
            codes["ena"] = yield from kernel.tk_ena_int(1)

        simulator = Simulator("enaint")
        kernel = TKernelOS(simulator, user_main=user_main)

        def externals():
            yield Wait(SimTime.ms(5))  # line disabled
            log["spurious_before"] = kernel.interrupts.spurious_count
            log["first"] = kernel.raise_interrupt(1)
            log["spurious_between"] = kernel.interrupts.spurious_count
            yield Wait(SimTime.ms(10))  # line enabled again
            log["second"] = kernel.raise_interrupt(1)

        simulator.register_thread("externals", externals)
        simulator.run(SimTime.ms(30))
        assert codes == {"dis": E_OK, "ena": E_OK}
        assert log["first"] is False
        assert log["spurious_between"] == log["spurious_before"] + 1
        assert log["second"] is True
        assert len(log["isr"]) == 1 and log["isr"][0] >= 15.0
        assert kernel.interrupts.spurious_count == log["spurious_between"]
        [handler] = kernel.interrupts.all_handlers()
        assert (handler.intno, handler.activation_count) == (1, 1)

    def test_unknown_line_is_e_noexs(self):
        codes = {}

        def user_main(kernel):
            codes["ena"] = yield from kernel.tk_ena_int(7)
            codes["dis"] = yield from kernel.tk_dis_int(7)

        run_kernel(user_main, duration_ms=5)
        assert codes == {"ena": E_NOEXS, "dis": E_NOEXS}

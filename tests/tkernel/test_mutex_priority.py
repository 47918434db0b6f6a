"""A task's current priority under the strict priority-control rule.

µITRON 4.0's strict rule, which T-Kernel 1.0 follows, derives the current
priority as the highest of the base priority, the ceilings of the held
``TA_CEILING`` mutexes and the current priorities of the tasks waiting on
the held ``TA_INHERIT`` mutexes.  Each test below drives one change point
of that rule on a booted kernel and reads ``(tskpri, tskbpri)`` with
``tk_ref_tsk``.
"""

import pytest

from repro.tkernel import (
    E_OK,
    E_RLWAI,
    E_TMOUT,
    TA_CEILING,
    TA_INHERIT,
    TMO_FEVR,
)
from tests.tkernel.conftest import run_kernel


def priorities(kernel, *tskids):
    """``(tskpri, tskbpri)`` of each task of *tskids*."""
    pairs = []
    for tskid in tskids:
        ref = yield from kernel.tk_ref_tsk(tskid)
        pairs.append((ref["tskpri"], ref["tskbpri"]))
    return pairs


def lock_and_sleep(kernel, *mtxids):
    """A task body that locks *mtxids* in order, then sleeps for good."""
    def body(stacd, exinf):
        for mtxid in mtxids:
            yield from kernel.tk_loc_mtx(mtxid)
        yield from kernel.tk_slp_tsk(TMO_FEVR)
    return body


def start(kernel, body, priority, name):
    tskid = yield from kernel.tk_cre_tsk(body, itskpri=priority, name=name)
    yield from kernel.tk_sta_tsk(tskid)
    yield from kernel.tk_dly_tsk(2)  # let it run up to its lock or sleep
    return tskid


def test_priority_change_keeps_a_held_ceiling():
    """tk_chg_pri sets the base priority; a held ceiling still bounds the
    current priority."""
    seen = {}

    def user_main(kernel):
        mtxid = yield from kernel.tk_cre_mtx(mtxatr=TA_CEILING, ceilpri=10)

        def worker(stacd, exinf):
            yield from kernel.tk_loc_mtx(mtxid)
            seen["code"] = yield from kernel.tk_chg_pri(0, 12)
            seen["held"], = yield from priorities(kernel, 0)
            yield from kernel.tk_unl_mtx(mtxid)
            seen["free"], = yield from priorities(kernel, 0)

        yield from start(kernel, worker, 20, "worker")

    run_kernel(user_main, duration_ms=20)
    assert seen == {"code": E_OK, "held": (10, 12), "free": (12, 12)}


@pytest.mark.parametrize("leave, code", [
    ("timeout", E_TMOUT),
    ("tk_rel_wai", E_RLWAI),
    ("tk_ter_tsk", None),
])
def test_a_waiter_that_leaves_without_the_mutex_unboosts_the_owner(leave, code):
    seen = {}

    def user_main(kernel):
        mtxid = yield from kernel.tk_cre_mtx(mtxatr=TA_INHERIT)
        owner = yield from start(kernel, lock_and_sleep(kernel, mtxid), 30, "owner")

        def waiter(stacd, exinf):
            tmout = 5 if leave == "timeout" else TMO_FEVR
            seen["code"] = yield from kernel.tk_loc_mtx(mtxid, tmout)

        waiter_id = yield from start(kernel, waiter, 8, "waiter")
        seen["boosted"], = yield from priorities(kernel, owner)
        if leave != "timeout":
            assert (yield from getattr(kernel, leave)(waiter_id)) == E_OK
        yield from kernel.tk_dly_tsk(10)
        seen["after"], = yield from priorities(kernel, owner)

    run_kernel(user_main, duration_ms=30)
    assert seen["boosted"] == (8, 30)
    assert seen["after"] == (30, 30)
    assert seen.get("code") == code


def chain(kernel):
    """L (30) holds m2; M (20) holds m1 and waits on m2; H (5) waits on m1.

    Returns the three task ids, highest first.
    """
    m1 = yield from kernel.tk_cre_mtx(mtxatr=TA_INHERIT)
    m2 = yield from kernel.tk_cre_mtx(mtxatr=TA_INHERIT)
    low = yield from start(kernel, lock_and_sleep(kernel, m2), 30, "L")
    mid = yield from start(kernel, lock_and_sleep(kernel, m1, m2), 20, "M")
    high = yield from start(kernel, lock_and_sleep(kernel, m1), 5, "H")
    return high, mid, low


def test_inheritance_follows_the_wait_chain():
    seen = {}

    def user_main(kernel):
        tasks = yield from chain(kernel)
        seen["pri"] = yield from priorities(kernel, *tasks)

    run_kernel(user_main, duration_ms=20)
    assert seen["pri"] == [(5, 5), (5, 20), (5, 30)]


@pytest.mark.parametrize("new_priority, expected", [
    (3, [(3, 3), (3, 20), (3, 30)]),
    (25, [(25, 25), (20, 20), (20, 30)]),
])
def test_a_waiters_priority_change_reaches_every_owner(new_priority, expected):
    seen = {}

    def user_main(kernel):
        tasks = yield from chain(kernel)
        assert (yield from kernel.tk_chg_pri(tasks[0], new_priority)) == E_OK
        seen["pri"] = yield from priorities(kernel, *tasks)

    run_kernel(user_main, duration_ms=20)
    assert seen["pri"] == expected


def test_inherit_mutex_waiters_queue_by_priority():
    """µITRON 4.0 cre_mtx: a TA_INHERIT mutex's wait queue is in task
    priority order, so the later but more urgent waiter locks first."""
    order = []

    def user_main(kernel):
        mtxid = yield from kernel.tk_cre_mtx(mtxatr=TA_INHERIT)

        def owner(stacd, exinf):
            yield from kernel.tk_loc_mtx(mtxid)
            yield from kernel.tk_slp_tsk(TMO_FEVR)
            yield from kernel.tk_unl_mtx(mtxid)

        def waiter(stacd, exinf):
            yield from kernel.tk_loc_mtx(mtxid)
            order.append(stacd)
            yield from kernel.tk_unl_mtx(mtxid)

        owner_id = yield from start(kernel, owner, 30, "owner")
        for priority in (20, 5):
            tskid = yield from kernel.tk_cre_tsk(waiter, itskpri=priority)
            yield from kernel.tk_sta_tsk(tskid, priority)
            yield from kernel.tk_dly_tsk(2)
        ref = yield from kernel.tk_ref_mtx(mtxid)
        order.append(len(ref["wtsk"]))
        yield from kernel.tk_wup_tsk(owner_id)

    run_kernel(user_main, duration_ms=20)
    assert order == [2, 5, 20]


def test_a_deadlock_cycle_ends_the_walk():
    """A waits on B's mutex and B on A's: the walk stops at the first task
    it visits twice, and both tasks keep the priority the cycle gives."""
    seen = {}

    def user_main(kernel):
        m_a = yield from kernel.tk_cre_mtx(mtxatr=TA_INHERIT)
        m_b = yield from kernel.tk_cre_mtx(mtxatr=TA_INHERIT)

        def task(first, second):
            def body(stacd, exinf):
                yield from kernel.tk_loc_mtx(first)
                yield from kernel.tk_dly_tsk(5)
                yield from kernel.tk_loc_mtx(second)
            return body

        a = yield from start(kernel, task(m_a, m_b), 10, "A")
        b = yield from start(kernel, task(m_b, m_a), 20, "B")
        yield from kernel.tk_dly_tsk(10)
        seen["pri"] = yield from priorities(kernel, a, b)

    simulator, _ = run_kernel(user_main, duration_ms=30)
    assert simulator.now.to_ms() == 30
    assert seen["pri"] == [(10, 10), (10, 20)]

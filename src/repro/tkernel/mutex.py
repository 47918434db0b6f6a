"""Mutexes (tk_cre_mtx, tk_loc_mtx, ...) and the rule for a task's current
priority: µITRON 4.0's strict priority-control rule, which T-Kernel 1.0
follows.  The current priority is the highest (numerically lowest) of the
task's base priority, the ceilings of the ``TA_CEILING`` mutexes it holds
and the current priorities of the tasks waiting on the ``TA_INHERIT``
mutexes it holds.  :func:`derived_priority` computes it, and
:meth:`MutexManager.update_priority` applies it along the wait chain at each
change point: lock, unlock, a waiter leaving without the mutex (timeout,
``tk_rel_wai`` or ``tk_ter_tsk``, all through ``kernel._release_wait``),
``tk_del_mtx``, task exit and ``tk_chg_pri``.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.tkernel.errors import E_ILUSE, E_OK, E_PAR
from repro.tkernel.objects import KernelObject, ObjectTable, Refused, WaitQueue, service
from repro.tkernel.types import (
    MAX_TASK_PRIORITY,
    MIN_TASK_PRIORITY,
    TA_CEILING,
    TA_INHERIT,
    TA_TPRI,
    TMO_FEVR,
    TTW_MTX,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tkernel.kernel import TKernelOS
    from repro.tkernel.task import TaskControlBlock


class Mutex(KernelObject):
    """A mutual-exclusion lock owned by at most one task.

    µITRON 4.0 cre_mtx: "If TA_TFIFO (= 0x00) is specified, the mutex's
    wait queue will be in FIFO order.  If TA_TPRI (= 0x01), TA_INHERIT
    (= 0x02), or TA_CEILING (= 0x03) is specified, the wait queue will be
    in task priority order."
    """

    object_type = "mutex"

    def __init__(self, object_id: int, name: str, attributes: int,
                 ceilpri: int = MIN_TASK_PRIORITY, exinf=None):
        super().__init__(object_id, name, attributes, exinf)
        self.ceiling_priority = ceilpri
        self.owner: "Optional[TaskControlBlock]" = None
        self.wait_queue = WaitQueue(TA_TPRI if attributes & (TA_TPRI | TA_INHERIT) else 0)
        #: The locking protocol: ``inherit``, ``ceiling`` or ``fifo``.
        self.protocol = ("ceiling" if attributes & TA_CEILING == TA_CEILING
                         else "inherit" if attributes & TA_INHERIT else "fifo")


def derived_priority(tcb: "TaskControlBlock") -> int:
    """*tcb*'s current priority under the strict rule (module docstring)."""
    priority = tcb.base_priority
    for mutex in tcb.locked_mutexes:
        if mutex.protocol == "ceiling":
            priority = min(priority, mutex.ceiling_priority)
        elif mutex.protocol == "inherit" and mutex.wait_queue:
            # Priority-ordered: the head is the most urgent waiter.
            priority = min(priority, mutex.wait_queue.peek().priority)
    return priority


class MutexManager:
    """Implements the mutex service calls."""

    def __init__(self, kernel: "TKernelOS"):
        self.kernel = kernel
        self.table: ObjectTable[Mutex] = ObjectTable()

    @service
    def tk_cre_mtx(self, name: str = "", mtxatr: int = TA_INHERIT,
                   ceilpri: int = MIN_TASK_PRIORITY, exinf=None):
        """Create a mutex; returns its id or an error code."""
        if not MIN_TASK_PRIORITY <= ceilpri <= MAX_TASK_PRIORITY:
            return E_PAR
        return self.table.add(
            lambda oid: Mutex(oid, name or f"mtx{oid}", mtxatr, ceilpri, exinf)
        ).object_id

    @service
    def tk_del_mtx(self, mtxid: int):
        """Delete a mutex; waiting tasks are released with E_DLT."""
        mutex = self.table.require(mtxid)
        self.kernel._release_all_waiters(mutex.wait_queue)
        if mutex.owner is not None:
            self.release(mutex, mutex.owner)
        self.table.delete(mtxid)
        return E_OK

    @service
    def tk_loc_mtx(self, mtxid: int, tmout: int = TMO_FEVR):
        """Lock a mutex, waiting up to *tmout* milliseconds.

        A task whose base priority is higher than a ``TA_CEILING`` mutex's
        ceiling may not lock it (``E_ILUSE``).
        """
        mutex = self.table.require(mtxid)
        tcb = self.kernel.tasks.invoking_tcb()
        if mutex.owner is tcb:
            return E_ILUSE  # recursive locking is not allowed
        self.check_ceilings(tcb, tcb.base_priority, mutex)
        if mutex.owner is None:
            mutex.owner = tcb
            tcb.locked_mutexes.append(mutex)
            self.update_priority(tcb)
            return E_OK
        # On E_OK the releasing task already transferred ownership to us.
        return (yield from self.kernel._wait_here(
            factor=TTW_MTX, object_id=mtxid, tmout=tmout, queue=mutex.wait_queue))

    def check_ceilings(self, tcb: "TaskControlBlock", priority: int,
                       locking: Optional[Mutex] = None) -> None:
        """Refuse (``E_ILUSE``) a base *priority* for *tcb* higher than the
        ceiling of a ``TA_CEILING`` mutex it holds, waits on or is *locking*."""
        for mutex in (*tcb.locked_mutexes, self._awaited(tcb), locking):
            if mutex and mutex.protocol == "ceiling" and priority < mutex.ceiling_priority:
                raise Refused(E_ILUSE)

    def _awaited(self, tcb: "TaskControlBlock") -> Optional[Mutex]:
        """The mutex *tcb* waits on, if any."""
        return self.table.get(tcb.wait_object_id) if tcb.wait_factor == TTW_MTX else None

    def update_priority(self, tcb: "Optional[TaskControlBlock]") -> None:
        """Apply the rule to *tcb* and, while priorities change, to the owner
        of the mutex it waits on, and so on.  On a deadlock cycle the walk
        stops at the first task it has already visited."""
        visited = set()
        while tcb is not None and tcb not in visited:
            visited.add(tcb)
            priority = derived_priority(tcb)
            if priority == tcb.priority:
                return
            self.kernel._set_task_priority(tcb, priority)
            mutex = self._awaited(tcb)
            tcb = mutex.owner if mutex is not None else None

    def waiters_changed(self, mtxid: int) -> None:
        """Apply the rule to the owner of mutex *mtxid*, whose waiters changed."""
        mutex = self.table.get(mtxid)
        self.update_priority(mutex.owner if mutex is not None else None)

    @service
    def tk_unl_mtx(self, mtxid: int):
        """Unlock a mutex owned by the invoking task."""
        mutex = self.table.require(mtxid)
        tcb = self.kernel.tasks.invoking_tcb()
        if mutex.owner is not tcb:
            return E_ILUSE
        self.release(mutex, tcb)
        return E_OK

    def release(self, mutex: Mutex, owner: "TaskControlBlock") -> None:
        """Unlock *owner*'s *mutex* and hand it to the first waiter, if any."""
        owner.locked_mutexes.remove(mutex)
        mutex.owner = None
        self.update_priority(owner)
        next_entry = mutex.wait_queue.pop()
        if next_entry is not None:
            mutex.owner = next_entry.tcb
            next_entry.tcb.locked_mutexes.append(mutex)
            # Releasing the wait applies the rule to the new owner.
            self.kernel._release_wait(next_entry, E_OK)

    @service
    def tk_ref_mtx(self, mtxid: int):
        """Reference a mutex's state."""
        mutex = self.table.require(mtxid)
        return {
            "mtxid": mutex.object_id,
            "name": mutex.name,
            "exinf": mutex.exinf,
            "htsk": mutex.owner.tskid if mutex.owner else 0,
            "wtsk": mutex.wait_queue.waiting_task_ids(),
            "protocol": mutex.protocol,
            "ceilpri": mutex.ceiling_priority,
        }

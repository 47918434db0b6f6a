"""Semaphores (tk_cre_sem, tk_sig_sem, tk_wai_sem, ...)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tkernel.errors import E_OK, E_PAR, E_QOVR
from repro.tkernel.objects import KernelObject, ObjectTable, WaitQueue, service
from repro.tkernel.types import TMO_FEVR, TTW_SEM

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tkernel.kernel import TKernelOS


class Semaphore(KernelObject):
    """A counting semaphore with a bounded resource count."""

    object_type = "semaphore"

    def __init__(self, object_id: int, name: str, attributes: int,
                 isemcnt: int, maxsem: int, exinf=None):
        super().__init__(object_id, name, attributes, exinf)
        self.count = isemcnt
        self.max_count = maxsem
        self.wait_queue = WaitQueue(attributes)


class SemaphoreManager:
    """Implements the semaphore service calls."""

    def __init__(self, kernel: "TKernelOS"):
        self.kernel = kernel
        self.table: ObjectTable[Semaphore] = ObjectTable()

    # ------------------------------------------------------------------
    # Service calls
    # ------------------------------------------------------------------
    @service
    def tk_cre_sem(self, isemcnt: int = 0, maxsem: int = 1, name: str = "",
                   sematr: int = 0, exinf=None):
        """Create a semaphore; returns its id or an error code."""
        if isemcnt < 0 or maxsem <= 0 or isemcnt > maxsem:
            return E_PAR
        return self.table.add(
            lambda oid: Semaphore(oid, name or f"sem{oid}", sematr, isemcnt, maxsem, exinf)
        ).object_id

    @service
    def tk_del_sem(self, semid: int):
        """Delete a semaphore; waiting tasks are released with E_DLT."""
        sem = self.table.require(semid)
        self.kernel._release_all_waiters(sem.wait_queue)
        self.table.delete(semid)
        return E_OK

    @service
    def tk_sig_sem(self, semid: int, cnt: int = 1):
        """Return *cnt* resources to the semaphore, waking waiters in order."""
        sem = self.table.require(semid)
        if cnt <= 0:
            return E_PAR
        if cnt > sem.max_count - sem.count:
            return E_QOVR  # checked before anything changes, as in T-Kernel
        sem.count += cnt
        self._serve_waiters(sem)
        return E_OK

    def _serve_waiters(self, sem: Semaphore) -> None:
        """Release queued waiters while enough resources are available."""
        while sem.wait_queue:
            head = sem.wait_queue.peek()
            assert head is not None
            requested = head.data.get("count", 1)
            if requested > sem.count:
                break
            sem.count -= requested
            sem.wait_queue.pop()
            self.kernel._release_wait(head, E_OK)

    @service
    def tk_wai_sem(self, semid: int, cnt: int = 1, tmout: int = TMO_FEVR):
        """Acquire *cnt* resources, waiting up to *tmout* milliseconds."""
        sem = self.table.require(semid)
        if cnt <= 0 or cnt > sem.max_count:
            return E_PAR
        if sem.count >= cnt and not sem.wait_queue:
            sem.count -= cnt
            return E_OK
        return (yield from self.kernel._wait_here(
            factor=TTW_SEM,
            object_id=semid,
            tmout=tmout,
            queue=sem.wait_queue,
            data={"count": cnt},
        ))

    @service
    def tk_ref_sem(self, semid: int):
        """Reference a semaphore's state."""
        sem = self.table.require(semid)
        return {
            "semid": sem.object_id,
            "name": sem.name,
            "exinf": sem.exinf,
            "semcnt": sem.count,
            "maxsem": sem.max_count,
            "wtsk": sem.wait_queue.waiting_task_ids(),
        }

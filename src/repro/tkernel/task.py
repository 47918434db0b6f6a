"""Task management: task control blocks and the tk_*_tsk service calls.

A task's behaviour is a *task function*: a callable ``task_fn(stacd, exinf)``
returning a generator.  The generator expresses execution time through
``yield from kernel.api.sim_wait(...)`` (or BFM accesses) and uses kernel
services through ``yield from kernel.tk_...(...)``.

Task states follow μ-ITRON: DORMANT until started, READY/RUNNING while
schedulable, WAITING while blocked in a service call, SUSPENDED when
suspended by another task, WAITING-SUSPENDED when both.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.core.events import ThreadKind
from repro.core.tthread import ThreadExit, TThread
from repro.tkernel.errors import E_CTX, E_ID, E_NOEXS, E_OBJ, E_OK, E_PAR, E_QOVR, E_RLWAI
from repro.tkernel.objects import ObjectTable, Refused, WaitEntry, service
from repro.tkernel.types import (
    MAX_TASK_PRIORITY,
    MIN_TASK_PRIORITY,
    TMO_FEVR,
    TSK_SELF,
    TTS_DMT,
    TTS_RDY,
    TTS_RUN,
    TTS_SUS,
    TTS_WAI,
    TTS_WAS,
    TTW_DLY,
    TTW_SLP,
    WUPCNT_LIMIT,
    task_state_name,
    wait_factor_name,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tkernel.kernel import TKernelOS

#: Signature of a task function.
TaskFunction = Callable[[int, Any], Generator[object, object, None]]


class TaskControlBlock:
    """The kernel-side record of one task."""

    def __init__(
        self,
        tskid: int,
        name: str,
        task_fn: TaskFunction,
        itskpri: int,
        tskatr: int = 0,
        exinf: Any = None,
    ):
        self.tskid = tskid
        self.name = name
        self.task_fn = task_fn
        self.itskpri = itskpri
        self.base_priority = itskpri
        self.priority = itskpri
        self.tskatr = tskatr
        self.exinf = exinf
        self.stacd = 0
        self.thread: Optional[TThread] = None
        #: WAI / SUS / DMT bookkeeping bits (RUN/RDY are derived).
        self.state = TTS_DMT
        self.wupcnt = 0
        self.suscnt = 0
        self.wait_entry: Optional[WaitEntry] = None
        self.wait_factor = 0
        self.wait_object_id = 0
        #: Result payload of the most recent released wait (message, pattern,
        #: memory block, ...); set by the kernel's wait/release protocol.
        self.last_wait_result: Any = None
        #: Mutexes currently locked by this task (for inheritance & cleanup).
        self.locked_mutexes: List[Any] = []
        self.activation_requests = 0

    # -- state queries -------------------------------------------------------
    def is_dormant(self) -> bool:
        """Whether the task has not been started (or has exited)."""
        return bool(self.state & TTS_DMT)

    def is_waiting(self) -> bool:
        """Whether the task is blocked in a service call."""
        return bool(self.state & TTS_WAI)

    def is_suspended(self) -> bool:
        """Whether the task has been suspended with tk_sus_tsk."""
        return bool(self.state & TTS_SUS)

    def current_state(self, running_thread: Optional[TThread]) -> int:
        """The μ-ITRON task state, deriving RUN/RDY from the live thread."""
        if self.state & TTS_DMT:
            return TTS_DMT
        if self.state & TTS_WAI and self.state & TTS_SUS:
            return TTS_WAS
        if self.state & TTS_WAI:
            return TTS_WAI
        if self.state & TTS_SUS:
            return TTS_SUS
        if self.thread is not None and self.thread is running_thread:
            return TTS_RUN
        return TTS_RDY

    def state_name(self, running_thread: Optional[TThread]) -> str:
        """Readable name of :meth:`current_state`."""
        return task_state_name(self.current_state(running_thread))


class TaskManager:
    """Implements the task-management service calls."""

    def __init__(self, kernel: "TKernelOS"):
        self.kernel = kernel
        self.table: ObjectTable[TaskControlBlock] = ObjectTable()  # type: ignore[type-var]
        self._by_thread: Dict[int, TaskControlBlock] = {}

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def tcb_of_thread(self, thread: Optional[TThread]) -> Optional[TaskControlBlock]:
        """The TCB owning *thread*, if it is a task thread."""
        if thread is None:
            return None
        return self._by_thread.get(thread.tid)

    def current_tcb(self) -> Optional[TaskControlBlock]:
        """The TCB of the running task (None in task-independent context)."""
        return self.tcb_of_thread(self.kernel.api.running)

    def invoking_tcb(self) -> TaskControlBlock:
        """The TCB of the task invoking a service; refuses with ``E_CTX``
        in task-independent context (a handler, boot code, a test)."""
        running = self.kernel.api.running
        tcb = None if running is None else self._by_thread.get(running.tid)
        if tcb is None:
            raise Refused(E_CTX)
        return tcb

    def resolve(self, tskid: int) -> TaskControlBlock:
        """The TCB of *tskid* (TSK_SELF: the invoking task); refuses with
        ``E_ID`` (TSK_SELF outside a task, or a negative id) or ``E_NOEXS``."""
        if tskid == TSK_SELF:
            current = self.current_tcb()
            if current is None:
                raise Refused(E_ID)
            return current
        if tskid < 0:
            raise Refused(E_ID)
        tcb = self.table.get(tskid)
        if tcb is None:
            raise Refused(E_NOEXS)
        return tcb

    # ------------------------------------------------------------------
    # Creation / deletion
    # ------------------------------------------------------------------
    @service
    def tk_cre_tsk(
        self,
        task_fn: TaskFunction,
        itskpri: int,
        name: str = "",
        tskatr: int = 0,
        exinf: Any = None,
        stksz: int = 1024,
    ):
        """Create a task (dormant).  Returns the new task id or an error code."""
        if not MIN_TASK_PRIORITY <= itskpri <= MAX_TASK_PRIORITY:
            return E_PAR
        if stksz <= 0:
            return E_PAR
        tcb = self.table.add(
            lambda oid: TaskControlBlock(
                oid, name or f"task{oid}", task_fn, itskpri, tskatr, exinf
            )
        )
        tcb.thread = self.kernel.api.create_thread(
            tcb.name,
            self._body_factory(tcb),
            priority=itskpri,
            kind=ThreadKind.TASK,
        )
        self._by_thread[tcb.thread.tid] = tcb
        return tcb.tskid

    def _body_factory(self, tcb: TaskControlBlock):
        kernel = self.kernel

        def factory():
            try:
                yield from tcb.task_fn(tcb.stacd, tcb.exinf)
            finally:
                kernel._on_task_body_finished(tcb)

        return factory

    @service
    def tk_del_tsk(self, tskid: int):
        """Delete a dormant task."""
        tcb = self.resolve(tskid)
        if not tcb.is_dormant():
            return E_OBJ
        assert tcb.thread is not None
        self._by_thread.pop(tcb.thread.tid, None)
        self.kernel.api.remove_thread(tcb.thread)
        self.table.delete(tcb.tskid)
        return E_OK

    # ------------------------------------------------------------------
    # Start / exit / terminate
    # ------------------------------------------------------------------
    @service
    def tk_sta_tsk(self, tskid: int, stacd: int = 0):
        """Start a dormant task."""
        tcb = self.resolve(tskid)
        if not tcb.is_dormant():
            return E_OBJ
        self._start(tcb, stacd)
        return E_OK

    def _start(self, tcb: TaskControlBlock, stacd: int) -> None:
        tcb.stacd = stacd
        tcb.state = 0
        tcb.wupcnt = 0
        tcb.suscnt = 0
        assert tcb.thread is not None
        self.kernel.api.start_thread(tcb.thread)

    @service
    def tk_ext_tsk(self):
        """Exit the invoking task (never returns to the task body)."""
        raise ThreadExit()

    @service
    def tk_exd_tsk(self):
        """Exit and delete the invoking task."""
        tcb = self.current_tcb()
        if tcb is not None:
            # Deletion is immediate for the object table and SIM_API, as in
            # tk_del_tsk; the body still unwinds, which releases what the
            # task held.
            assert tcb.thread is not None
            self._by_thread.pop(tcb.thread.tid, None)
            self.kernel.api.remove_thread(tcb.thread)
            self.table.delete(tcb.tskid)
        raise ThreadExit()

    @service
    def tk_ter_tsk(self, tskid: int):
        """Forcibly terminate another task."""
        tcb = self.resolve(tskid)
        current = self.current_tcb()
        if current is tcb:
            return E_OBJ  # a task cannot terminate itself with tk_ter_tsk
        if tcb.is_dormant():
            return E_OBJ
        self.kernel._force_terminate(tcb)
        return E_OK

    # ------------------------------------------------------------------
    # Sleep / wakeup / delay
    # ------------------------------------------------------------------
    @service
    def tk_slp_tsk(self, tmout: int = TMO_FEVR):
        """Sleep until tk_wup_tsk (or timeout)."""
        tcb = self.invoking_tcb()
        if tcb.wupcnt > 0:
            tcb.wupcnt -= 1
            return E_OK
        return (yield from self.kernel._wait_here(
            factor=TTW_SLP, object_id=0, tmout=tmout
        ))

    @service
    def tk_wup_tsk(self, tskid: int):
        """Wake up a task sleeping in tk_slp_tsk (or queue the wakeup)."""
        tcb = self.resolve(tskid)
        if tcb.is_dormant():
            return E_OBJ
        if tcb.is_waiting() and tcb.wait_factor == TTW_SLP:
            self.kernel._release_wait(tcb.wait_entry, E_OK)
            return E_OK
        if tcb.wupcnt >= WUPCNT_LIMIT:
            return E_QOVR
        tcb.wupcnt += 1
        return E_OK

    @service
    def tk_can_wup(self, tskid: int = TSK_SELF):
        """Return and clear the queued wakeup count."""
        tcb = self.resolve(tskid)
        count = tcb.wupcnt
        tcb.wupcnt = 0
        return count

    @service
    def tk_dly_tsk(self, dlytim: int):
        """Delay the invoking task for *dlytim* milliseconds."""
        self.invoking_tcb()
        if dlytim < 0:
            return E_PAR
        if dlytim == 0:
            return E_OK
        return (yield from self.kernel._wait_here(
            factor=TTW_DLY,
            object_id=0,
            tmout=dlytim,
            timeout_code=E_OK,
        ))

    @service
    def tk_rel_wai(self, tskid: int):
        """Forcibly release another task from its wait (it gets E_RLWAI)."""
        tcb = self.resolve(tskid)
        if not tcb.is_waiting() or tcb.wait_entry is None:
            return E_OBJ
        self.kernel._release_wait(tcb.wait_entry, E_RLWAI)
        return E_OK

    # ------------------------------------------------------------------
    # Suspend / resume
    # ------------------------------------------------------------------
    @service
    def tk_sus_tsk(self, tskid: int):
        """Suspend a task (READY or WAITING; suspending the running task from
        another context is not supported by this model)."""
        tcb = self.resolve(tskid)
        if tcb.is_dormant():
            return E_OBJ
        current = self.current_tcb()
        if tcb is current:
            return E_CTX
        if tcb.thread is self.kernel.api.running:
            return E_CTX
        tcb.suscnt += 1
        if not tcb.is_suspended():
            tcb.state |= TTS_SUS
            if not tcb.is_waiting():
                # Remove from the ready pool until resumed.
                self.kernel.api.make_unready(tcb.thread)
        return E_OK

    @service
    def tk_rsm_tsk(self, tskid: int):
        """Resume a suspended task (one nesting level)."""
        return self._resume(tskid, force=False)

    @service
    def tk_frsm_tsk(self, tskid: int):
        """Forcibly resume a suspended task (clear all nesting levels)."""
        return self._resume(tskid, force=True)

    def _resume(self, tskid: int, force: bool) -> int:
        tcb = self.resolve(tskid)
        if not tcb.is_suspended():
            return E_OBJ
        tcb.suscnt = 0 if force else max(0, tcb.suscnt - 1)
        if tcb.suscnt == 0:
            tcb.state &= ~TTS_SUS
            if not tcb.is_waiting() and not tcb.is_dormant():
                assert tcb.thread is not None
                self.kernel.api.make_ready(tcb.thread)
                self.kernel.api.request_dispatch()
        return E_OK

    # ------------------------------------------------------------------
    # Priorities and references
    # ------------------------------------------------------------------
    @service
    def tk_chg_pri(self, tskid: int, tskpri: int):
        """Change a task's base priority (0 restores the initial priority).

        A priority higher than the ceiling of a ``TA_CEILING`` mutex the
        task holds or waits on is refused with ``E_ILUSE``.  The current
        priority follows :mod:`repro.tkernel.mutex`'s rule; if it does not
        change, the task keeps its place in its queues.
        """
        tcb = self.resolve(tskid)
        if tskpri == 0:
            tskpri = tcb.itskpri
        if not MIN_TASK_PRIORITY <= tskpri <= MAX_TASK_PRIORITY:
            return E_PAR
        if tcb.is_dormant():
            return E_OBJ
        self.kernel.mutexes.check_ceilings(tcb, tskpri)
        tcb.base_priority = tskpri
        self.kernel.mutexes.update_priority(tcb)
        return E_OK

    @service
    def tk_get_tid(self):
        """Identifier of the invoking task (0 in task-independent context)."""
        tcb = self.current_tcb()
        return tcb.tskid if tcb is not None else 0

    @service
    def tk_ref_tsk(self, tskid: int = TSK_SELF):
        """Reference a task's state (returns a dict, or an error code)."""
        tcb = self.resolve(tskid)
        running = self.kernel.api.running
        return {
            "tskid": tcb.tskid,
            "name": tcb.name,
            "exinf": tcb.exinf,
            "tskpri": tcb.priority,
            "tskbpri": tcb.base_priority,
            "tskstat": tcb.current_state(running),
            "tskwait": tcb.wait_factor,
            "wid": tcb.wait_object_id,
            "wupcnt": tcb.wupcnt,
            "suscnt": tcb.suscnt,
            "state_name": tcb.state_name(running),
            "wait_name": wait_factor_name(tcb.wait_factor),
        }

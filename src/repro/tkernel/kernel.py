"""The RTK-Spec TRON central module: T-Kernel/OS on top of SIM_API.

Fig. 3 of the paper: *"the kernel simulation model consists of a central
module having three SC_THREADs: Thread Dispatch, Interrupt Dispatch and Boot
Modules sensitive to system tick, external interrupts, and reset signals
respectively."*  :class:`TKernelOS` is that central module.

* **Boot** waits for the hardware reset (or starts immediately when no reset
  signal is wired), consumes the annotated kernel start-up cost, initializes
  the kernel internal state and starts the *initial task*, which calls the
  user ``main`` entry to create and start the application tasks, handlers and
  resources.
* **Thread Dispatch** wakes on every system tick (the BFM's real-time clock,
  or an internal 1 ms timer when running stand-alone), runs the timer handler
  — advancing system time, expiring timeouts, activating cyclic and alarm
  handlers — and then applies any pending dispatch decision.
* **Interrupt Dispatch** wakes on the interrupt controller's request line,
  identifies the pending interrupt number and notifies the dedicated ISR
  T-THREAD through the SIM_API library.

Every service call is a :func:`~repro.tkernel.objects.service` method of one
manager (``kernel.tasks``, ``kernel.semaphores``, ..., ``kernel.system``).
:data:`SERVICE_TABLE` maps each T-Kernel name to its manager, and every
kernel binds the flat ``kernel.tk_*`` surface from it at construction:
``kernel.tk_wai_sem`` *is* ``kernel.semaphores.tk_wai_sem``.  All service
calls are generators: call them with ``yield from`` inside a task or handler
body.  Outside any T-THREAD (tests, boot code) use
:meth:`TKernelOS.call_immediate` for non-blocking calls.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional

from repro.core.events import ExecutionContext
from repro.core.scheduler import PriorityScheduler
from repro.core.simapi import SimApi
from repro.sysc.kernel import Simulator
from repro.sysc.module import SCModule
from repro.sysc.process import Wait, WaitEvent
from repro.sysc.signal import Signal
from repro.sysc.time import SimTime
from repro.tkernel.alarm import AlarmHandlerManager
from repro.tkernel.cyclic import CyclicHandlerManager
from repro.tkernel.errors import E_DLT, E_OK, E_PAR, E_RLWAI, E_TMOUT, KernelPanic
from repro.tkernel.eventflag import EventFlagManager
from repro.tkernel.interrupt import InterruptManager
from repro.tkernel.mailbox import MailboxManager
from repro.tkernel.mempool import MemoryPoolManager
from repro.tkernel.msgbuf import MessageBufferManager
from repro.tkernel.mutex import MutexManager
from repro.tkernel.objects import Refused, WaitEntry, WaitQueue, service, service_names
from repro.tkernel.semaphore import SemaphoreManager
from repro.tkernel.task import TaskControlBlock, TaskManager
from repro.tkernel.timemgmt import TimeManager
from repro.tkernel.types import TMO_FEVR, TMO_POL, TTS_DMT, TTS_SUS, TTS_WAI, TTW_MTX

#: Signature of the user main entry run by the initial task.
UserMain = Callable[["TKernelOS"], Generator[object, object, None]]

#: Priority of the initial task that runs the user main entry.
INITIAL_TASK_PRIORITY = 1


class SystemManager:
    """Implements the system time and system reference service calls."""

    def __init__(self, kernel: "TKernelOS"):
        self.kernel = kernel

    @service
    def tk_set_tim(self, time_ms: int):
        """Set the calendar system time."""
        if time_ms < 0:
            return E_PAR
        self.kernel.time.set_system_time(time_ms)
        return E_OK

    @service
    def tk_get_tim(self):
        """Get the calendar system time in milliseconds."""
        return self.kernel.time.get_system_time()

    @service
    def tk_get_otm(self):
        """Get the operation time (milliseconds since boot)."""
        return self.kernel.time.get_operation_time()

    @service
    def tk_ref_sys(self):
        """Reference overall system state."""
        kernel = self.kernel
        running_tcb = kernel.tasks.current_tcb()
        return {
            "sysstat": "in_interrupt" if kernel.in_task_independent_context() else "task",
            "runtskid": running_tcb.tskid if running_tcb else 0,
            "schedtskid": running_tcb.tskid if running_tcb else 0,
            "booted": kernel.booted,
            "tick_ms": kernel.system_tick.to_ms(),
            "task_count": len(kernel.tasks.table),
            "semaphore_count": len(kernel.semaphores.table),
            "flag_count": len(kernel.eventflags.table),
            "mailbox_count": len(kernel.mailboxes.table),
            "systime_ms": kernel.time.get_system_time(),
        }


#: Kernel attribute → the manager class constructed there, in construction
#: order.  Every ``@service`` method of these classes is a service call.
MANAGERS = {
    "tasks": TaskManager,
    "semaphores": SemaphoreManager,
    "eventflags": EventFlagManager,
    "mutexes": MutexManager,
    "mailboxes": MailboxManager,
    "message_buffers": MessageBufferManager,
    "memory_pools": MemoryPoolManager,
    "cyclics": CyclicHandlerManager,
    "alarms": AlarmHandlerManager,
    "interrupts": InterruptManager,
    "system": SystemManager,
}

#: The T-Kernel service-call surface (Table 1): name → manager attribute.
SERVICE_TABLE = {
    name: attr
    for attr, manager_class in MANAGERS.items()
    for name in service_names(manager_class)
}


class TKernelOS(SCModule):
    """The T-Kernel/OS simulation model (RTK-Spec TRON)."""

    def __init__(
        self,
        simulator: Simulator,
        user_main: Optional[UserMain] = None,
        api: Optional[SimApi] = None,
        system_tick: "SimTime | int" = SimTime.ms(1),
        tick_signal: Optional[Signal] = None,
        reset_signal: Optional[Signal] = None,
        name: str = "tkernel",
    ):
        super().__init__(name, simulator)
        self.system_tick = SimTime.coerce(system_tick)
        self.api = api if api is not None else SimApi(
            simulator, scheduler=PriorityScheduler(), system_tick=self.system_tick
        )
        self.time = TimeManager(self.system_tick)
        self.user_main = user_main

        # Object managers, then the flat tk_* surface bound to their methods.
        for attr, manager_class in MANAGERS.items():
            setattr(self, attr, manager_class(self))
        for name, attr in SERVICE_TABLE.items():
            setattr(self, name, getattr(getattr(self, attr), name))

        # External wiring.
        self.tick_signal = tick_signal
        self.reset_signal = reset_signal
        self._intc = None
        self._intc_attached_event = self.create_event("intc_attached")

        # Kernel state & statistics.
        self.booted = False
        self.boot_time: Optional[SimTime] = None
        self.initial_task_id: Optional[int] = None
        self.service_call_counts: Dict[str, int] = {}
        self.tick_handler_runs = 0

        # Service-call enter/exit flows over the observability bus; the
        # name stack pairs each `exit` with its `enter` across nesting.
        self._obs_svc = simulator.obs.topic("svc")
        self._svc_active: list = []

        # The three SC_THREADs of the central module (Fig. 3).
        self.sc_thread("boot", self._boot_process)
        self.sc_thread("thread_dispatch", self._thread_dispatch_process)
        self.sc_thread("interrupt_dispatch", self._interrupt_dispatch_process)

    # ------------------------------------------------------------------
    # External wiring
    # ------------------------------------------------------------------
    def attach_interrupt_controller(self, intc) -> None:
        """Attach an interrupt controller exposing ``irq_event``/``acknowledge()``."""
        self._intc = intc
        self._intc_attached_event.notify()

    def raise_interrupt(self, intno: int) -> bool:
        """Raise external interrupt *intno* directly (bypassing any INTC)."""
        return self.interrupts.dispatch(intno)

    # ------------------------------------------------------------------
    # The central-module processes
    # ------------------------------------------------------------------
    def _boot_process(self):
        """Kernel start-up sequence upon receiving the hardware reset."""
        if self.reset_signal is not None and not self.reset_signal.read():
            yield WaitEvent(self.reset_signal.posedge_event)
        boot_annotation = self.api.annotations.lookup("svc:boot")
        yield Wait(self.api.timing_model.time_of(boot_annotation.cycles))
        self._initialize_kernel()

    def _initialize_kernel(self) -> None:
        self.booted = True
        self.boot_time = self.simulator.now
        if self.user_main is None:
            return
        tskid = self.call_immediate(
            self.tasks.tk_cre_tsk(
                self._initial_task_body,
                itskpri=INITIAL_TASK_PRIORITY,
                name="init_task",
            )
        )
        if tskid < 0:
            raise KernelPanic(f"failed to create the initial task: {tskid}")
        self.initial_task_id = tskid
        self.call_immediate(self.tasks.tk_sta_tsk(tskid))

    def _initial_task_body(self, stacd, exinf):
        """Body of the initial task: run the user main entry, then exit."""
        assert self.user_main is not None
        yield from self.user_main(self)

    def _thread_dispatch_process(self):
        """Tick handler: sensitive to the system tick (RTC or internal)."""
        if self.tick_signal is not None:
            tick_wait = WaitEvent(self.tick_signal.posedge_event)
        else:
            tick_wait = Wait(self.system_tick)
        while True:
            yield tick_wait  # reused every tick; the kernel never keeps it
            self._timer_handler()

    def _timer_handler(self) -> None:
        """The paper's timer handler: system clock, timer queue, dispatch."""
        if not self.booted:
            return
        self.tick_handler_runs += 1
        self.time.advance_tick()
        self.time.process_due(self.simulator.now)
        # "...then calls simulation library APIs to start running a
        # task/handler or preempt the running task if a task of higher
        # priority is ready to run."
        self.api.request_dispatch()

    def _interrupt_dispatch_process(self):
        """Identify and respond to external interrupts (Fig. 3)."""
        while True:
            if self._intc is None:
                yield WaitEvent(self._intc_attached_event)
                continue
            yield WaitEvent(self._intc.irq_event)
            while True:
                intno = self._intc.acknowledge()
                if intno is None:
                    break
                self.interrupts.dispatch(intno)

    # ------------------------------------------------------------------
    # Service-call plumbing shared by every manager
    # ------------------------------------------------------------------
    def _in_thread_context(self) -> bool:
        """Whether the invoking code runs inside the T-THREAD holding the CPU."""
        running = self.api.running
        return (running is not None
                and self.simulator._running_process is running._process)

    def in_task_independent_context(self) -> bool:
        """Whether execution is currently in a handler / interrupt context."""
        if self.api.stack.in_interrupt():
            return True
        running = self.api.running
        return running is not None and running.is_handler

    def _svc_enter(self, name: str):
        """Enter a service call: atomicity plus the annotated call cost."""
        self.service_call_counts[name] = self.service_call_counts.get(name, 0) + 1
        # The name stack is maintained unconditionally so a sink attached or
        # detached mid-call cannot desynchronise later enter/exit pairings.
        self._svc_active.append(name)
        topic = self._obs_svc
        if topic.enabled:
            topic.emit(
                "enter", self.simulator._now_ns,
                name=name, depth=len(self._svc_active),
            )
        if self._in_thread_context():
            self.api.dispatch_disable()
            yield from self.api.sim_wait_key(
                f"svc:{name}", context=ExecutionContext.SERVICE_CALL
            )
        return None

    def _svc_exit(self) -> None:
        """Leave a service call: re-enable dispatching if we disabled it."""
        name = self._svc_active.pop() if self._svc_active else ""
        topic = self._obs_svc
        if topic.enabled:
            topic.emit("exit", self.simulator._now_ns, name=name)
        if self._in_thread_context() and not self.api.dispatch_enabled:
            self.api.dispatch_enable()

    def call_immediate(self, service_generator):
        """Run a non-blocking service call from outside any T-THREAD.

        Useful for boot code and tests.  Raises :class:`KernelPanic` if the
        call tries to consume simulated time or block.
        """
        try:
            next(service_generator)
        except StopIteration as stop:
            return stop.value
        raise KernelPanic(
            "call_immediate used with a service call that waits; "
            "call it from a task body with 'yield from' instead"
        )

    # ------------------------------------------------------------------
    # Generic wait / release protocol
    # ------------------------------------------------------------------
    # A blocking service calls ``yield from kernel._wait_here(...)`` once it
    # has decided to wait.  ``_wait_here`` refuses a polling call
    # (``TMO_POL``) with ``E_TMOUT`` and a call from outside any task with
    # ``E_CTX``, in that order; otherwise it queues a :class:`WaitEntry`,
    # arms the timeout and blocks the task.  Whoever ends the wait — the
    # object's release rule, the timeout, ``tk_rel_wai`` or the object's
    # deletion — goes through ``_release_wait``, which records the code and
    # payload and readies the task; ``_wait_here`` then returns that code.
    # A task whose body ends while waiting is released dormant with
    # ``E_RLWAI``, so it is unlinked but not readied.  A mutex wait queue
    # that gains or loses a task has its owner's priority recomputed.
    def _wait_here(
        self,
        factor: int,
        object_id: int,
        tmout: int = TMO_FEVR,
        queue: Optional[WaitQueue] = None,
        data: Optional[Dict[str, Any]] = None,
        timeout_code: int = E_TMOUT,
    ):
        """Block the invoking task until released, timed out or forcibly freed.

        Refuses with ``E_TMOUT`` when *tmout* is ``TMO_POL`` and with
        ``E_CTX`` when no task invokes the service.  Otherwise the release
        code (``E_OK``, ``E_TMOUT``, ``E_RLWAI``, ``E_DLT`` ...) is
        returned.  The release payload, if any, is left in the task's
        ``last_wait_result``.
        """
        if tmout == TMO_POL:
            raise Refused(E_TMOUT)
        tcb = self.tasks.invoking_tcb()
        entry = WaitEntry(tcb, factor, object_id, data=dict(data or {}), queue=queue)
        tcb.wait_entry = entry
        tcb.wait_factor = factor
        tcb.wait_object_id = object_id
        tcb.last_wait_result = None
        tcb.state |= TTS_WAI
        if queue is not None:
            queue.enqueue(entry)
        if factor == TTW_MTX:
            self.mutexes.waiters_changed(object_id)
        if tmout is not None and tmout >= 0:
            entry.timeout_handle = self.time.after_ms(
                self.simulator.now,
                tmout,
                lambda: self._release_wait(entry, timeout_code),
                label=f"timeout:{tcb.name}",
            )
        yield from self.api.block_current()
        code = entry.release_code if entry.release_code is not None else E_OK
        tcb.last_wait_result = entry.result
        return code

    def _release_wait(self, entry: Optional[WaitEntry], code: int, result: Any = None) -> None:
        """Release a waiting task with *code* (idempotent)."""
        if entry is None or entry.release_code is not None:
            return
        entry.release_code = code
        entry.result = result
        if entry.queue is not None:
            entry.queue.remove(entry)
        self.time.cancel(entry.timeout_handle)
        tcb = entry.tcb
        tcb.wait_entry = None
        tcb.wait_factor = 0
        tcb.wait_object_id = 0
        tcb.last_wait_result = result
        tcb.state &= ~TTS_WAI
        if entry.factor == TTW_MTX:
            self.mutexes.waiters_changed(entry.object_id)
        if tcb.state & TTS_SUS or tcb.state & TTS_DMT:
            # Stays suspended (or was terminated while waiting): do not ready it.
            return
        assert tcb.thread is not None
        self.api.make_ready(tcb.thread)
        self.api.request_dispatch()

    def _release_all_waiters(self, queue: WaitQueue, code: int = None) -> None:
        """Release every waiter of *queue* (object deletion → E_DLT)."""
        release_code = E_DLT if code is None else code
        for entry in queue.entries():
            self._release_wait(entry, release_code)

    # ------------------------------------------------------------------
    # Task lifecycle hooks used by the task manager
    # ------------------------------------------------------------------
    def _on_task_body_finished(self, tcb: TaskControlBlock) -> None:
        """Clean up after a task body returned, exited or was terminated."""
        for mutex in list(tcb.locked_mutexes):
            self.mutexes.release(mutex, tcb)
        tcb.state = TTS_DMT
        self._release_wait(tcb.wait_entry, E_RLWAI)  # dormant: not readied
        tcb.wupcnt = 0
        tcb.suscnt = 0
        tcb.priority = tcb.base_priority = tcb.itskpri
        if tcb.thread is not None:
            tcb.thread.priority = tcb.itskpri

    def _force_terminate(self, tcb: TaskControlBlock) -> None:
        """Forcibly terminate *tcb* (tk_ter_tsk)."""
        assert tcb.thread is not None
        self.api.make_unready(tcb.thread)
        if not tcb.thread.force_terminate():
            # Started but never run: no body unwinds to clean up after it.
            self._on_task_body_finished(tcb)
        tcb.state = TTS_DMT

    def _set_task_priority(self, tcb: TaskControlBlock, priority: int) -> None:
        """Set a task's current priority and reorder its queues.

        The one writer of a live task's current priority; the value comes
        from :func:`repro.tkernel.mutex.derived_priority`.  A ready task
        moves to the tail of its new priority level.
        """
        assert tcb.thread is not None
        tcb.priority = priority
        scheduler = self.api.scheduler
        if tcb.thread in scheduler:
            scheduler.requeue_for_priority_change(tcb.thread, priority)
        else:
            tcb.thread.priority = priority
        if tcb.wait_entry is not None and tcb.wait_entry.queue is not None:
            tcb.wait_entry.queue.reorder_for_priority_change()
        self.api.request_dispatch()
        if self.api.running is tcb.thread:
            # The running task may have lowered itself below a ready task.
            candidate = scheduler.select_next()
            if candidate is not None and scheduler.should_preempt(tcb.thread, candidate):
                self.api.preempt_current()

    # ------------------------------------------------------------------
    # Campaign adapter
    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, object]:
        """Kernel-level run statistics for the campaign runner.

        Unlike ``tk_ref_sys`` this is a plain method (no service-call
        context or cost) so the runner can call it after the simulation ends.
        """
        return {
            "booted": self.booted,
            "boot_time_ms": self.boot_time.to_ms() if self.boot_time else None,
            "tick_handler_runs": self.tick_handler_runs,
            "service_calls": dict(sorted(self.service_call_counts.items())),
            "service_call_total": sum(self.service_call_counts.values()),
            "task_count": len(self.tasks.table),
        }

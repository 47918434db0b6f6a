"""SIM_API — the RTOS modeling library (Table 1, Fig. 3).

The SIM_API library supervises every T-THREAD.  It owns the single simulated
CPU: exactly one T-THREAD holds the CPU at any simulated instant, all others
are suspended on their run events.  Kernel simulation models (RTK-Spec TRON,
RTK-Spec I/II) use the library's programming constructs to express their
dynamics:

===============================  =================================================
Construct                        Purpose
===============================  =================================================
``create_thread``                create a T-THREAD for a task or handler
``start_thread``                 make a task ready and dispatch if appropriate
``sim_wait``                     annotated execution time/energy with preemption
                                 points at system-clock granularity (SIM_Wait)
``sim_wait_key``                 like ``sim_wait`` but takes an annotation key
``preemption_point``             an explicit zero-cost preemption point
``block_current``                the running thread sleeps waiting for an event
``wakeup``                       make a sleeping thread ready again and reschedule
``make_ready`` / ``make_unready``  ready-pool management for the external scheduler
``request_dispatch``             evaluate the scheduler; preempt if required
``preempt_current``              force a rotation (round-robin time slice)
``notify_interrupt``             an external interrupt requests its handler
``activate_handler``             a cyclic/alarm handler is activated by the timer
``dispatch_disable`` / ``dispatch_enable``  service-call atomicity & delayed dispatch
``energy_statistics``            per-thread CET/CEE summary
``hashtb``                       the SIM_HashTB thread registry
``stack``                        the SIM_Stack interrupt-nesting stack
===============================  =================================================

Dispatching rules implemented here (section 4 of the paper):

* **Preemption with system-clock granularity** — a preemption or interruption
  decision marks the running T-THREAD; the thread suspends at its next
  preemption point inside ``sim_wait``.
* **Delayed dispatching** — a preemption that takes place within an interrupt
  handler (or nested handler) is postponed until the handler returns.
* **Service-call atomicity** — while dispatching is disabled (service call in
  progress) preemption points do not suspend the thread.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Generator, Optional

from repro.core.etm import (
    EnergyModel,
    TimingAnnotation,
    TimingModel,
    default_service_call_annotations,
)
from repro.core.events import ExecutionContext, RunEvent, ThreadKind, ThreadState
from repro.core.hashtb import SimHashTB
from repro.core.petri import Transition
from repro.core.scheduler import PriorityScheduler, RoundRobinScheduler
from repro.core.stack import SimStack
from repro.core.tthread import BodyFactory, TThread
from repro.obs.bus import Shape
from repro.sysc.process import Wait
from repro.sysc.time import SimTime

if TYPE_CHECKING:
    # Annotation-only: a runtime import here closes the kernel → obs →
    # core → simapi → kernel cycle and makes `import repro.sysc.kernel`
    # order-dependent.
    from repro.sysc.kernel import Simulator


#: Cap on each T-THREAD's slice-plan memo (see :meth:`SimApi.sim_wait`).
PLAN_CAP = 1024

#: Deepest interrupt nesting the SIM_Stack accepts.
MAX_INTERRUPT_NESTING = 16


class SimApiError(RuntimeError):
    """Raised when the SIM_API library is used inconsistently."""


class SimApi:
    """The SIM_API simulation library instance for one simulated platform."""

    def __init__(
        self,
        simulator: Simulator,
        scheduler: "PriorityScheduler | RoundRobinScheduler | None" = None,
        system_tick: "SimTime | int" = SimTime.ms(1),
    ):
        self.simulator = simulator
        # PriorityScheduler defines __len__, so an empty one is falsy;
        # compare against None explicitly.
        self.scheduler = scheduler if scheduler is not None else PriorityScheduler()
        # The scheduler is fixed for the library's lifetime, so head-insert
        # support is resolved once here instead of via hasattr per make_ready.
        self._add_ready_first = getattr(self.scheduler, "add_ready_first", None)
        self.system_tick = SimTime.coerce(system_tick)
        if self.system_tick.nanoseconds <= 0:
            raise SimApiError("system tick must be positive")
        # Int-ns tick plus one shared full-tick Wait: every slice plan's
        # whole-tick chunk reuses it.
        self._system_tick_ns = self.system_tick.nanoseconds
        self._tick_wait = Wait(self.system_tick)
        # Shared frozen Transition per (label, context): plans of every
        # thread fire the same instance, so a token's dict lookup hits by
        # identity.
        self._transition_cache: Dict[object, Transition] = {}
        # The tick and the timing and energy models are fixed for the
        # library's lifetime, so a SIM_Wait budget is resolved once per
        # T-THREAD into a slice plan (see sim_wait).
        self.timing_model = TimingModel()
        self.energy_model = EnergyModel()
        self.annotations = default_service_call_annotations()
        # Resolved sim_wait_key budgets (see sim_wait_key).
        self._key_budgets: Dict[str, tuple] = {}

        self.hashtb = SimHashTB()
        self.stack: SimStack[TThread] = SimStack(max_depth=MAX_INTERRUPT_NESTING)

        # Scheduling history flows over the observability bus and SIM_API
        # keeps none of it: a caller who wants a Gantt chart subscribes a
        # GanttChart sink to `sched`.  The integer counters below count
        # every segment and marker whether or not anyone listens.
        self.obs = simulator.obs
        self._obs_sched = self.obs.topic("sched")
        self._obs_irq = self.obs.topic("irq")
        self.marker_count = 0
        self.segment_count = 0

        #: The T-THREAD currently holding the CPU (task or handler).
        self.running: Optional[TThread] = None
        self._pending_handlers: Deque[TThread] = deque()
        self._dispatch_disable_count = 0
        self._deferred_dispatch = False
        self._next_tid = 1

        # Idle-time accounting for the energy distribution widget
        # (integer nanoseconds; SimTime only at the cpu_idle_time boundary).
        self._idle_since_ns: Optional[int] = 0
        self._idle_total_ns = 0

        # Statistics counters surfaced by the benchmarks.
        self.dispatch_count = 0
        self.preemption_count = 0
        self.interrupt_count = 0
        self.sim_wait_count = 0

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _emit_marker(self, kind: str, thread: TThread) -> None:
        """Count a scheduling point event and publish it if anyone listens.

        Each (thread, marker kind) is one declared shape, built on first
        use (see :mod:`repro.obs.bus`, "Declared shapes").
        """
        self.marker_count += 1
        topic = self._obs_sched
        if topic.enabled:
            shape = thread._marker_shapes.get(kind)
            if shape is None:
                shape = thread._marker_shapes[kind] = Shape(
                    "sched", kind, {"thread": thread.name})
            topic.emit_shape(shape, self.simulator._now_ns)

    # ------------------------------------------------------------------
    # Thread creation & identifiers
    # ------------------------------------------------------------------
    def allocate_tid(self) -> int:
        """Allocate a fresh T-THREAD identifier."""
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def create_thread(
        self,
        name: str,
        factory: BodyFactory,
        priority: int = 128,
        kind: ThreadKind = ThreadKind.TASK,
    ) -> TThread:
        """Create and register a T-THREAD (it starts dormant)."""
        thread = TThread(self, name, factory, priority=priority, kind=kind)
        thread.set_state(ThreadState.DORMANT)
        return thread

    def remove_thread(self, thread: TThread) -> None:
        """Forget a T-THREAD (task deletion)."""
        self.scheduler.remove(thread)
        self.hashtb.unregister(thread)

    # ------------------------------------------------------------------
    # Ready-pool management
    # ------------------------------------------------------------------
    def make_ready(self, thread: TThread, at_head: bool = False) -> None:
        """Insert a task T-THREAD into the scheduler's ready pool."""
        if thread.is_handler:
            raise SimApiError("handlers are activated, not made ready")
        if at_head and self._add_ready_first is not None:
            self._add_ready_first(thread)
        else:
            self.scheduler.add_ready(thread)
        if thread.state is not ThreadState.RUNNING:
            thread.set_state(ThreadState.READY)

    def make_unready(self, thread: TThread) -> None:
        """Remove a task from the ready pool (it is waiting or dormant)."""
        self.scheduler.remove(thread)

    def start_thread(self, thread: TThread) -> None:
        """Start a task T-THREAD: make it ready and reschedule."""
        self.make_ready(thread)
        self.request_dispatch()

    # ------------------------------------------------------------------
    # Dispatching
    # ------------------------------------------------------------------
    def dispatch_disable(self) -> None:
        """Disable dispatching (service-call atomicity)."""
        self._dispatch_disable_count += 1

    def dispatch_enable(self) -> None:
        """Re-enable dispatching; apply any deferred dispatch decision."""
        if self._dispatch_disable_count == 0:
            raise SimApiError("dispatch_enable without matching dispatch_disable")
        self._dispatch_disable_count -= 1
        if self._dispatch_disable_count == 0:
            self._apply_deferred_dispatch()

    @property
    def dispatch_enabled(self) -> bool:
        """Whether dispatching is currently allowed."""
        return self._dispatch_disable_count == 0

    def in_interrupt(self) -> bool:
        """Whether an interrupt/handler context is active or pending."""
        return self.stack.in_interrupt() or bool(self._pending_handlers)

    def request_dispatch(self) -> None:
        """Evaluate the scheduler and dispatch/preempt as required.

        Honours delayed dispatching and service-call atomicity: the decision
        is deferred while a handler is active or dispatching is disabled.
        """
        if self._dispatch_disable_count or self.in_interrupt():
            self._deferred_dispatch = True
            return
        scheduler = self.scheduler
        running = self.running
        if running is None:
            # Idle CPU: a single pop both selects and claims the winner —
            # the select_next + pop_next double scan was pure overhead here.
            chosen = scheduler.pop_next()
            if chosen is not None:
                self._grant(chosen)
            return
        candidate = scheduler.select_next()
        if candidate is not None and scheduler.should_preempt(running, candidate):
            running.preempt_requested = True

    def preempt_current(self) -> None:
        """Force the running task to be preempted at its next preemption point.

        Used by round-robin kernels to rotate the time slice and by
        priority kernels when the running task's priority is lowered.
        """
        if self.running is None:
            self.request_dispatch()
            return
        if self.scheduler.select_next() is None:
            return
        self.running.preempt_requested = True

    def _apply_deferred_dispatch(self) -> None:
        if not self._deferred_dispatch:
            return
        if not self.dispatch_enabled or self.in_interrupt():
            return
        self._deferred_dispatch = False
        self.request_dispatch()

    def _grant(self, thread: TThread) -> None:
        """Give the CPU to *thread* (the only way a T-THREAD gets to run)."""
        resume_event = self._resume_event_for(thread)
        self._account_idle_end()
        self.running = thread
        self.dispatch_count += 1
        self._emit_marker("dispatch", thread)
        thread.grant_cpu(resume_event)

    @staticmethod
    def _resume_event_for(thread: TThread) -> RunEvent:
        # A thread suspended mid-body remembers *how* it suspended; its
        # current SIM_HashTB state may already have moved on (e.g. a sleeping
        # task that was made READY by a wakeup before being dispatched).
        suspend_kind = thread.suspend_kind
        if suspend_kind is ThreadState.PREEMPTED:
            return RunEvent.RETURN_FROM_PREEMPTION
        if suspend_kind is ThreadState.INTERRUPTED:
            return RunEvent.RETURN_FROM_INTERRUPT
        if suspend_kind is ThreadState.SLEEPING:
            return RunEvent.SLEEP_ARRIVAL
        if thread.activation_count == 0:
            return RunEvent.STARTUP
        return RunEvent.CONTINUE

    def _release_cpu(self) -> None:
        """Mark the CPU as free and start idle accounting."""
        self.running = None
        self._account_idle_start()

    def _account_idle_start(self) -> None:
        if self._idle_since_ns is None:
            self._idle_since_ns = self.simulator._now_ns

    def _account_idle_end(self) -> None:
        since_ns = self._idle_since_ns
        if since_ns is not None:
            self._idle_total_ns += self.simulator._now_ns - since_ns
            self._idle_since_ns = None

    def cpu_idle_time(self) -> SimTime:
        """Total simulated time during which no T-THREAD held the CPU."""
        total_ns = self._idle_total_ns
        if self._idle_since_ns is not None:
            total_ns += self.simulator._now_ns - self._idle_since_ns
        return SimTime(total_ns)  # simtime-boundary

    # ------------------------------------------------------------------
    # SIM_Wait and preemption points
    # ------------------------------------------------------------------
    def sim_wait(
        self,
        cycles: Optional[int] = None,
        duration: "SimTime | int | None" = None,
        energy_nj: Optional[float] = None,
        context: ExecutionContext = ExecutionContext.TASK,
        label: str = "",
    ) -> Generator[object, object, None]:
        """Consume annotated execution time and energy (SIM_Wait).

        Exactly one of *cycles* or *duration* must be given.  The wait is
        split into chunks of at most one system tick; pending preemptions or
        interruptions suspend the thread at chunk boundaries ("the next
        preemption point").  Energy accrues proportionally to the time
        actually consumed.

        A budget is resolved once per T-THREAD: the calling thread keeps a
        bounded memo (:data:`PLAN_CAP`) from ``(cycles, duration ns,
        energy_nj, label, context)`` to a *slice plan* (see
        :meth:`_slice_plan`) holding the ``T_run`` transition and, per chunk
        kind, its ``Wait``, length, energy and declared ``sched`` shape.
        Later calls with the same budget only look the plan up.  Argument
        errors (both or neither of *cycles*/*duration*, a negative budget)
        raise on every call: a plan is stored only once it is built.
        """
        thread = self._require_running_caller()
        if cycles is not None:
            if duration is not None:
                raise SimApiError("sim_wait needs exactly one of cycles= or duration=")
            key = (cycles, None, energy_nj, label, context._name_)
        elif duration is None:
            raise SimApiError("sim_wait needs exactly one of cycles= or duration=")
        else:
            key = (None, SimTime.coerce(duration).nanoseconds, energy_nj, label,
                   context._name_)
        plan = thread._slice_plans.get(key)
        if plan is None:
            plan = self._slice_plan(thread, key, context, label)
        self.sim_wait_count += 1
        remaining_ns, transition, tick, tail = plan
        if not remaining_ns:
            yield from self.preemption_point()
            return

        # The chunk loop runs on the int-ns plane and does constant work per
        # chunk: the plan carries each chunk's Wait, length, energy and
        # shape.  The suspension check is entered only when a flag asks for
        # it: every branch of _maybe_suspend needs one of the two.
        tick_ns = self._system_tick_ns
        simulator = self.simulator
        topic = self._obs_sched
        while remaining_ns > 0:
            if thread.interrupt_requested or thread.preempt_requested:
                yield from self._maybe_suspend(thread)
            wait, chunk_ns, chunk_energy, shape = (
                tick if remaining_ns >= tick_ns else tail)
            start_ns = simulator._now_ns
            yield wait
            thread.token.fire(transition, chunk_ns, chunk_energy)
            self.segment_count += 1
            if topic.enabled:
                dur_ns = simulator._now_ns - start_ns
                if dur_ns == chunk_ns:
                    topic.emit_shape(shape, start_ns)
                else:
                    topic.emit(
                        "exec", start_ns, thread=thread.name, dur_ns=dur_ns,
                        context=context, energy_nj=chunk_energy, label=label,
                    )
            remaining_ns -= chunk_ns
        if thread.interrupt_requested or thread.preempt_requested:
            yield from self._maybe_suspend(thread)

    def _slice_plan(
        self, thread: TThread, key: tuple, context: ExecutionContext, label: str
    ) -> tuple:
        """Resolve one SIM_Wait budget into ``(total_ns, transition, tick,
        tail)`` and memoize it on *thread* while its memo is under
        :data:`PLAN_CAP`.

        *tick* and *tail* are ``(wait, chunk_ns, chunk_energy, shape)`` for
        a whole-tick chunk and for the sub-tick rest (``None`` when the
        budget is a whole number of ticks).  Chunk energy is computed as
        the chunk loop always did, ``energy_nj / total_ns * chunk_ns``.
        A budget of zero energy is not stored: ``0.0`` and ``-0.0`` are one
        key but render differently.
        """
        cycles, duration_ns, energy_nj = key[0], key[1], key[2]
        if cycles is not None:
            total_ns = self.timing_model.time_of(cycles).nanoseconds
            if energy_nj is None:
                energy_nj = self.energy_model.energy_of(TimingAnnotation(cycles))
        else:
            total_ns = duration_ns
            if energy_nj is None:
                estimated_cycles = self.timing_model.cycles_of(total_ns)
                energy_nj = self.energy_model.energy_of(TimingAnnotation(estimated_cycles))
        if total_ns < 0:
            raise SimApiError("sim_wait duration cannot be negative")
        if total_ns == 0:
            plan: tuple = (0, None, None, None)
        else:
            energy_rate = energy_nj / total_ns
            tick_ns = self._system_tick_ns
            tail_ns = total_ns % tick_ns
            plan = (
                total_ns,
                self._run_transition(label, context),
                self._slice_chunk(thread, self._tick_wait, tick_ns,
                                  energy_rate * tick_ns, context, label),
                self._slice_chunk(thread, Wait(SimTime(tail_ns)),  # simtime-boundary
                                  tail_ns, energy_rate * tail_ns, context, label)
                if tail_ns else None,
            )
        plans = thread._slice_plans
        if len(plans) < PLAN_CAP and (key[2] is None or key[2] != 0):
            plans[key] = plan
        return plan

    @staticmethod
    def _slice_chunk(
        thread: TThread, wait: Wait, chunk_ns: int, chunk_energy: float,
        context: ExecutionContext, label: str,
    ) -> tuple:
        """One chunk kind of a slice plan, with its declared exec shape."""
        return (wait, chunk_ns, chunk_energy, Shape("sched", "exec", {
            "thread": thread.name, "dur_ns": chunk_ns, "context": context,
            "energy_nj": chunk_energy, "label": label,
        }))

    def _run_transition(self, label: str, context: ExecutionContext) -> Transition:
        """The shared ``T_run`` transition for a (label, context) pair.

        Bounded: *label* is caller-supplied and may be dynamic (per-frame
        labels in a long soak run), so past the cap fresh transitions are
        constructed per call instead of cached forever.  The key holds the
        member's name, not the member: hashing an enum member is a
        Python-level call, paid on every ``sim_wait``.
        """
        key = (label, context._name_)
        transition = self._transition_cache.get(key)
        if transition is None:
            transition = Transition(
                label or f"T_run.{context._value_}", RunEvent.CONTINUE, context
            )
            if len(self._transition_cache) < 1024:
                self._transition_cache[key] = transition
        return transition

    def sim_wait_key(
        self,
        key: str,
        context: ExecutionContext = ExecutionContext.TASK,
    ) -> Generator[object, object, None]:
        """SIM_Wait using a named annotation from the annotation table.

        The resolved ``(cycles, energy_nj)`` is memoized by *key* while the
        memo is under :data:`PLAN_CAP`; neither the calling thread nor the
        context enters the resolution.  An entry holds while
        :attr:`annotations` is the same table at the same revision.  A
        resolution that raises stores nothing, so it raises on every call.
        """
        annotations = self.annotations
        budget = self._key_budgets.get(key)
        if budget is None or budget[0] is not annotations \
                or budget[1] != annotations.revision:
            annotation = annotations.lookup(key)
            budget = (annotations, annotations.revision, annotation.cycles,
                      self.energy_model.energy_of(annotation))
            if len(self._key_budgets) < PLAN_CAP:
                self._key_budgets[key] = budget
        yield from self.sim_wait(
            cycles=budget[2], energy_nj=budget[3], context=context, label=key,
        )

    def preemption_point(self) -> Generator[object, object, None]:
        """An explicit zero-cost preemption point."""
        thread = self._require_running_caller()
        yield from self._maybe_suspend(thread)

    def _maybe_suspend(self, thread: TThread) -> Generator[object, object, None]:
        """Suspend *thread* if a preemption or interruption is pending."""
        while True:
            if thread.interrupt_requested and self._pending_handlers:
                yield from self._suspend_for_interrupt(thread)
                continue
            if thread.preempt_requested and self.dispatch_enabled and not self.in_interrupt():
                yield from self._suspend_for_preemption(thread)
                continue
            # Clear a stale preemption request that can no longer be honoured
            # (e.g. the candidate vanished while dispatching was disabled).
            if thread.preempt_requested and self.dispatch_enabled \
                    and not self.in_interrupt() and self.scheduler.select_next() is None:
                thread.preempt_requested = False
            return

    def _suspend_for_preemption(self, thread: TThread) -> Generator[object, object, None]:
        thread.preempt_requested = False
        candidate = self.scheduler.select_next()
        if candidate is None or candidate is thread:
            return
        thread.preemption_count += 1
        self.preemption_count += 1
        self._emit_marker("preempt", thread)
        # The preempted task keeps the head position of its priority level.
        self.make_ready(thread, at_head=True)
        chosen = self.scheduler.pop_next()
        assert chosen is not None
        if chosen is thread:
            # We are still the best choice: nothing to do.
            thread.set_state(ThreadState.RUNNING)
            return
        self.running = None
        self._grant(chosen)
        resume = yield from thread._suspend_until_regranted(ThreadState.PREEMPTED)
        thread.token.fire(self._resume_transition(thread, resume))

    @staticmethod
    def _resume_transition(thread: TThread, resume: RunEvent) -> Transition:
        """The per-thread cached ``T_resume`` transition for *resume*.

        Keyed by the member's name: hashing an enum member is a
        Python-level call.
        """
        transition = thread._resume_transitions.get(resume._name_)
        if transition is None:
            transition = Transition(f"T_resume.{thread.name}", resume, ExecutionContext.TASK)
            thread._resume_transitions[resume._name_] = transition
        return transition

    def _suspend_for_interrupt(self, thread: TThread) -> Generator[object, object, None]:
        thread.interrupt_requested = False
        if not self._pending_handlers:
            return
        handler = self._pending_handlers.popleft()
        thread.interrupted_count += 1
        self._emit_marker("interrupted", thread)
        self.stack.push(thread, handler, self.simulator.now)
        if self._pending_handlers:
            # Another interrupt is already pending: let it nest inside the
            # handler we are about to run.
            handler.interrupt_requested = True
        self.running = None
        self._grant(handler)
        resume = yield from thread._suspend_until_regranted(ThreadState.INTERRUPTED)
        thread.token.fire(self._resume_transition(thread, resume))

    def _require_running_caller(self) -> TThread:
        process = self.simulator._running_process
        running = self.running
        if running is None or process is None:
            raise SimApiError("sim_wait called while no T-THREAD holds the CPU")
        # Identity against the thread's own SC_THREAD handle — the previous
        # name comparison built an f-string per service call.
        if process is not running._process:
            raise SimApiError(
                f"sim_wait called from {process.name!r} but the CPU belongs to "
                f"{running.name!r}"
            )
        return running

    # ------------------------------------------------------------------
    # Blocking & wakeup
    # ------------------------------------------------------------------
    def block_current(self) -> Generator[object, object, None]:
        """The running thread voluntarily gives up the CPU and sleeps.

        Used by kernel wait services such as ``tk_slp_tsk`` / ``tk_wai_sem``:
        the kernel puts the task into its wait queue, then delegates to this
        generator.  The thread resumes when :meth:`wakeup` (or a kernel
        dispatch) grants it the CPU again, firing the ``Ew`` transition.
        """
        thread = self._require_running_caller()
        thread.preempt_requested = False
        # A blocked thread no longer owns the dispatch-disable state.
        saved_disable = self._dispatch_disable_count
        self._dispatch_disable_count = 0
        self._emit_marker("sleep", thread)
        self._release_cpu()
        self._dispatch_after_release()
        resume = yield from thread._suspend_until_regranted(ThreadState.SLEEPING)
        self._dispatch_disable_count = saved_disable
        transition = thread._wakeup_transitions.get(resume._name_)
        if transition is None:
            transition = Transition(
                f"T_wakeup.{thread.name}", resume, ExecutionContext.SERVICE_CALL
            )
            thread._wakeup_transitions[resume._name_] = transition
        thread.token.fire(transition)

    def wakeup(self, thread: TThread) -> None:
        """Make a sleeping task ready again and reschedule."""
        if thread.state not in (ThreadState.SLEEPING, ThreadState.DORMANT,
                                ThreadState.READY, ThreadState.PREEMPTED):
            # Waking an already running/interrupted thread is a no-op here;
            # the kernel layer tracks wakeup requests counting separately.
            return
        if thread.state is ThreadState.SLEEPING:
            self.make_ready(thread)
        self.request_dispatch()

    def _dispatch_after_release(self) -> None:
        """After the CPU was freed, hand it to pending handlers or tasks."""
        if self._pending_handlers:
            handler = self._pending_handlers.popleft()
            self.stack.push(None, handler, self.simulator.now)
            if self._pending_handlers:
                handler.interrupt_requested = True
            self._grant(handler)
            return
        if not self.dispatch_enabled:
            self._deferred_dispatch = True
            return
        candidate = self.scheduler.pop_next()
        if candidate is not None:
            self._grant(candidate)

    # ------------------------------------------------------------------
    # Interrupts and handlers
    # ------------------------------------------------------------------
    def notify_interrupt(self, handler: TThread) -> None:
        """An external interrupt requests *handler* (SIM_NotifyInterrupt).

        If the CPU is idle the handler starts immediately; otherwise the
        running thread is marked and will suspend at its next preemption
        point, after which the handler runs on top of the SIM_Stack.
        """
        if not handler.is_handler:
            raise SimApiError(f"{handler.name!r} is not a handler T-THREAD")
        self.interrupt_count += 1
        topic = self._obs_irq
        if topic.enabled:
            topic.emit(
                "raise", self.simulator.now.nanoseconds,
                handler=handler.name, deferred=self.running is not None,
            )
        if self.running is None:
            self.stack.push(None, handler, self.simulator.now)
            self._grant(handler)
            return
        self._pending_handlers.append(handler)
        self.running.interrupt_requested = True

    def activate_handler(self, handler: TThread) -> None:
        """Activate a cyclic/alarm handler (timer-driven, task-independent)."""
        self.notify_interrupt(handler)

    # ------------------------------------------------------------------
    # Thread exit (called by TThread wrapper)
    # ------------------------------------------------------------------
    def _on_thread_exit(self, thread: TThread) -> None:
        thread.revoke_cpu()
        thread.preempt_requested = False
        thread.interrupt_requested = False
        if self.stack.in_interrupt() and self.stack.current_handler() is thread:
            self._on_handler_return(thread)
            return
        thread.set_state(ThreadState.DORMANT)
        if self.running is thread:
            self._release_cpu()
        if self.running is None:
            self._dispatch_after_release()

    def _on_handler_return(self, handler: TThread) -> None:
        frame = self.stack.pop()
        handler.set_state(ThreadState.DORMANT)
        if self.running is handler:
            self._release_cpu()
        self._emit_marker("handler_return", handler)

        if self._pending_handlers:
            # Service the next pending interrupt before resuming anything.
            next_handler = self._pending_handlers.popleft()
            self.stack.push(frame.interrupted, next_handler, self.simulator.now)
            if self._pending_handlers:
                next_handler.interrupt_requested = True
            self._grant(next_handler)
            return

        interrupted = frame.interrupted
        if self.stack.in_interrupt():
            # Returning from a nested interrupt: resume the outer handler.
            if interrupted is not None:
                self._grant(interrupted)
            return

        # Outermost return: apply delayed dispatching.
        self._deferred_dispatch = False
        candidate = self.scheduler.select_next()
        if interrupted is None:
            if candidate is not None and self.dispatch_enabled:
                chosen = self.scheduler.pop_next()
                assert chosen is not None
                self._grant(chosen)
            return
        if (
            candidate is not None
            and self.dispatch_enabled
            and self.scheduler.should_preempt(interrupted, candidate)
        ):
            # Delayed dispatching: a higher-priority task became ready while
            # the handler ran; it wins over the interrupted task.
            interrupted.preemption_count += 1
            self.preemption_count += 1
            self.make_ready(interrupted, at_head=True)
            chosen = self.scheduler.pop_next()
            assert chosen is not None
            self._emit_marker("delayed_preempt", interrupted)
            self._grant(chosen)
            return
        self._grant(interrupted)

    # ------------------------------------------------------------------
    # Statistics & debugging output
    # ------------------------------------------------------------------
    def energy_statistics(self) -> Dict[str, Dict[str, float]]:
        """Per-thread CET/CEE summary (the SIM_API energy statistics option)."""
        stats: Dict[str, Dict[str, float]] = {}
        for thread in self.hashtb.all_threads():
            stats[thread.name] = {
                "cet_ms": thread.consumed_execution_time.to_ms(),
                "cee_mj": thread.token.consumed_execution_energy_mj,
                "activations": float(thread.activation_count),
                "preemptions": float(thread.preemption_count),
                "interruptions": float(thread.interrupted_count),
            }
        return stats

    def total_consumed_energy_mj(self, include_idle: bool = True) -> float:
        """Total CEE over all threads, optionally including idle power."""
        total = sum(
            thread.token.consumed_execution_energy_mj
            for thread in self.hashtb.all_threads()
        )
        if include_idle:
            total += self.energy_model.idle_energy(self.cpu_idle_time()) * 1e-6
        return total

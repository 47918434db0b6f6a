"""The T-THREAD controllable process model (Fig. 2).

A T-THREAD wraps an application task or a handler (cyclic, alarm, or external
interrupt) in a controllable process whose execution semantics are those of a
synchronized Petri net.  It is layered on an SC_THREAD-style process of the
:mod:`repro.sysc` substrate and runs under the supervision of the SIM_API
library (:mod:`repro.core.simapi`), which is the only component allowed to
grant it the CPU.

Lifecycle
---------

``CREATED → (dispatch) → RUNNING → { PREEMPTED | INTERRUPTED | SLEEPING }*
→ DORMANT → (re-activation) → RUNNING → ...``

Each activation instantiates a fresh *body* generator obtained from the
factory the thread was created with; the body expresses its timing through
``yield from api.sim_wait(...)`` and interacts with the kernel model through
service-call generators.  When the body returns (or raises
:class:`ThreadExit`), the activation's execution cycle is complete and the
thread returns the CPU to the SIM_API library.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional, TYPE_CHECKING

from repro.core.events import ExecutionContext, RunEvent, ThreadKind, ThreadState
from repro.core.petri import PetriToken, Transition
from repro.sysc.event import SCEvent
from repro.sysc.process import WaitEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.simapi import SimApi


class ThreadExit(Exception):
    """Raised inside a body to terminate the current activation (tk_ext_tsk)."""


class ThreadTerminate(Exception):
    """Raised inside a body to forcibly terminate a task (tk_ter_tsk)."""


#: Type of a T-THREAD body factory: a zero-argument callable returning the
#: body generator for one activation.
BodyFactory = Callable[[], Generator[object, object, None]]


class TThread:
    """A controllable process wrapping one task or handler."""

    def __init__(
        self,
        api: "SimApi",
        name: str,
        factory: BodyFactory,
        priority: int = 128,
        kind: ThreadKind = ThreadKind.TASK,
        tid: Optional[int] = None,
    ):
        self.api = api
        self.name = name
        self.factory = factory
        self.priority = priority
        self.kind = kind
        self.tid = tid if tid is not None else api.allocate_tid()
        self.state = ThreadState.CREATED
        self.token = PetriToken(name)
        self.run_event: SCEvent = api.simulator.create_event(f"tthread.{name}.run")
        # Reusable wait request for the CPU-grant handshake: the dispatch
        # loop yields it once per suspension, and the kernel reads it
        # without retaining it.
        self._run_wait = WaitEvent(self.run_event)
        # Per-thread transition cache: dispatch bookkeeping fires the same
        # handful of transitions (activate/resume/wakeup per RunEvent) on
        # every round; building a Transition per firing was a measurable
        # slice of the ping-pong profile (f-string + construction).
        self._activate_transitions: dict = {}
        self._resume_transitions: dict = {}
        self._wakeup_transitions: dict = {}
        # SIM_Wait slice plans by budget, filled and bounded by SimApi.
        self._slice_plans: dict = {}
        # Declared ``sched`` marker shapes by kind, built by SimApi.
        self._marker_shapes: dict = {}

        # CPU-grant handshake with the SIM_API dispatcher.
        self._cpu_granted = False
        self._pending_resume_event: RunEvent = RunEvent.STARTUP
        # True while an activation's body runs: only then can it be aborted.
        self._in_body = False
        #: How the thread last suspended mid-body (PREEMPTED, INTERRUPTED or
        #: SLEEPING); None when the thread is dormant or running.
        self.suspend_kind: Optional[ThreadState] = None
        self.preempt_requested = False
        self.interrupt_requested = False

        # Statistics surfaced by the debugging widgets.
        self.activation_count = 0
        self.preemption_count = 0
        self.interrupted_count = 0
        self.exit_count = 0

        self._process = api.simulator.register_thread(f"tthread.{name}", self._run)
        api.hashtb.register(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def is_handler(self) -> bool:
        """Whether the thread wraps a handler rather than a task."""
        return self.kind.is_handler

    @property
    def consumed_execution_time(self):
        """CET of this thread (delegates to the token)."""
        return self.token.consumed_execution_time

    @property
    def consumed_execution_energy_nj(self) -> float:
        """CEE of this thread in nanojoules."""
        return self.token.consumed_execution_energy_nj

    # ------------------------------------------------------------------
    # State management (only SimApi and the kernel model should call these)
    # ------------------------------------------------------------------
    def set_state(self, new_state: ThreadState) -> None:
        """Change state; readers read it live, nothing journals it."""
        self.state = new_state

    def grant_cpu(self, resume_event: RunEvent) -> None:
        """Grant the CPU (called by the SIM_API dispatcher only)."""
        self._cpu_granted = True
        self._pending_resume_event = resume_event
        self.suspend_kind = None
        self.set_state(ThreadState.RUNNING)
        self.run_event.notify()

    def revoke_cpu(self) -> None:
        """Withdraw the CPU grant before the thread suspends."""
        self._cpu_granted = False

    def force_terminate(self) -> bool:
        """Abort the current activation (used by ``tk_ter_tsk``).

        A :class:`ThreadTerminate` exception is raised at the body's current
        suspension point; the wrapper catches it, the activation ends and the
        thread becomes dormant again, ready for a future re-start.  A body
        that never ran is not aborted: the thread only becomes dormant.
        Returns whether a body was aborted.
        """
        if not self._in_body:
            self.set_state(ThreadState.DORMANT)
            return False
        self._cpu_granted = False
        self.api.simulator.throw_into(self._process, ThreadTerminate())
        return True

    # ------------------------------------------------------------------
    # The underlying SC_THREAD
    # ------------------------------------------------------------------
    def _run(self):
        """Wrapper generator registered with the DES kernel."""
        while True:
            # Dormant: wait until the SIM_API library grants the CPU.
            while not self._cpu_granted:
                yield self._run_wait
            resume = self._pending_resume_event
            self.activation_count += 1
            context = (
                ExecutionContext.HANDLER if self.is_handler else ExecutionContext.STARTUP
                if resume is RunEvent.STARTUP
                else ExecutionContext.TASK
            )
            transition = self._activate_transitions.get(resume)
            if transition is None or transition.context is not context:
                transition = Transition(f"T_activate.{self.name}", resume, context)
                self._activate_transitions[resume] = transition
            self.token.fire(transition)
            body = self.factory()
            self._in_body = True
            try:
                yield from body
            except ThreadExit:
                pass
            except ThreadTerminate:
                pass
            self._in_body = False
            self.exit_count += 1
            self.token.complete_cycle()
            # Return the CPU to the library; it decides who runs next.
            self.api._on_thread_exit(self)

    # ------------------------------------------------------------------
    # Cooperative suspension (invoked from inside SIM_Wait)
    # ------------------------------------------------------------------
    def _suspend_until_regranted(self, suspend_state: ThreadState):
        """Generator: wait (inside the body) until the CPU is granted again.

        Returns the :class:`RunEvent` the SIM_API attached to the re-grant so
        the caller can fire the matching transition (Ex, Ei or Ew).
        """
        self.suspend_kind = suspend_state
        self.set_state(suspend_state)
        self._cpu_granted = False
        while not self._cpu_granted:
            yield self._run_wait
        return self._pending_resume_event

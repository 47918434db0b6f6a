"""The shared chassis of the RTK-Spec I / II user-defined kernels.

Both kernels offer the same minimal task API; they differ only in the
external scheduler handed to the SIM_API library and in what happens on each
system tick (RTK-Spec I rotates the time slice, RTK-Spec II relies purely on
priority preemption).
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List

from repro.core.events import ThreadKind
from repro.core.scheduler import PriorityScheduler, RoundRobinScheduler
from repro.core.simapi import SimApi
from repro.core.tthread import ThreadExit, TThread
from repro.sysc.kernel import Simulator
from repro.sysc.module import SCModule
from repro.sysc.process import Wait
from repro.sysc.time import SimTime

#: Signature of an RTK-Spec task function (no start code / exinf here).
RTKTaskFunction = Callable[[], Generator[object, object, None]]


class RTKTask:
    """A task of the RTK-Spec I/II kernels."""

    def __init__(self, task_id: int, name: str, priority: int, thread: TThread):
        self.task_id = task_id
        self.name = name
        self.priority = priority
        self.thread = thread
        self.sleeping = False
        self.started = False


class RTKSpecKernel(SCModule):
    """Base class for the RTK-Spec I / II kernels."""

    #: Name reported by :meth:`describe`; subclasses override.
    kernel_name = "RTK-Spec"

    def __init__(
        self,
        simulator: Simulator,
        scheduler: "PriorityScheduler | RoundRobinScheduler",
        system_tick: "SimTime | int" = SimTime.ms(1),
        name: str = "rtkspec",
    ):
        super().__init__(name, simulator)
        self.system_tick = SimTime.coerce(system_tick)
        self.api = SimApi(simulator, scheduler=scheduler,
                          system_tick=self.system_tick)
        self._tasks: Dict[int, RTKTask] = {}
        self._next_id = 1
        self.tick_count = 0
        self.sc_thread("tick", self._tick_process)

    # ------------------------------------------------------------------
    # Task API
    # ------------------------------------------------------------------
    def create_task(self, task_fn: RTKTaskFunction, priority: int = 10,
                    name: str = "") -> RTKTask:
        """Create a dormant task."""
        task_id = self._next_id
        self._next_id += 1
        task_name = name or f"rtk_task{task_id}"
        thread = self.api.create_thread(
            task_name, task_fn, priority=priority, kind=ThreadKind.TASK
        )
        task = RTKTask(task_id, task_name, priority, thread)
        self._tasks[task_id] = task
        return task

    def start_task(self, task: RTKTask) -> None:
        """Make a task ready and schedule."""
        task.started = True
        self.api.start_thread(task.thread)

    def sleep(self):
        """The calling task sleeps until :meth:`wakeup` (generator)."""
        task = self._task_of_running()
        task.sleeping = True
        yield from self.api.block_current()
        task.sleeping = False

    def wakeup(self, task: RTKTask) -> None:
        """Wake a task put to sleep with :meth:`sleep`."""
        if task.sleeping:
            self.api.wakeup(task.thread)

    def delay(self, duration: "SimTime | int"):
        """The calling task delays itself for *duration* (generator).

        The delay is realised as annotated idle spinning at the lowest
        possible rate: the task is simply removed from the CPU by sleeping on
        a timed wakeup, which is how a small 8051 kernel's delay queue behaves
        at tick granularity.
        """
        duration = SimTime.coerce(duration)
        task = self._task_of_running()
        task.sleeping = True
        self.simulator.schedule_callback(duration, lambda: self.wakeup(task))
        yield from self.api.block_current()
        task.sleeping = False

    def exit_task(self):
        """End the calling task (generator; never returns)."""
        raise ThreadExit()
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def tasks(self) -> List[RTKTask]:
        """All created tasks ordered by identifier."""
        return [self._tasks[tid] for tid in sorted(self._tasks)]

    def describe(self) -> Dict[str, object]:
        """A short structural description (used by the scheduler ablation)."""
        return {
            "kernel": self.kernel_name,
            "scheduler": type(self.api.scheduler).__name__,
            "tick_ms": self.system_tick.to_ms(),
            "tasks": [task.name for task in self.tasks()],
        }

    def statistics(self) -> Dict[str, object]:
        """Kernel-level run statistics for the campaign runner."""
        return {
            "ticks": self.tick_count,
            "task_count": len(self._tasks),
            "sleeping_tasks": sum(1 for task in self._tasks.values() if task.sleeping),
            "service_calls": {},
            "service_call_total": 0,
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _task_of_running(self) -> RTKTask:
        running = self.api.running
        if running is None:
            raise RuntimeError("no task is running")
        for task in self._tasks.values():
            if task.thread is running:
                return task
        raise RuntimeError(f"running thread {running.name!r} is not an RTK task")

    def _tick_process(self):
        tick_wait = Wait(self.system_tick)  # reused; the kernel never keeps it
        while True:
            yield tick_wait
            self.tick_count += 1
            self._on_tick()

    def _on_tick(self) -> None:
        """Per-tick policy hook; overridden by RTK-Spec I."""
        self.api.request_dispatch()

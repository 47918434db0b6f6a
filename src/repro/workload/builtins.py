"""The built-in workload components.

Every workload of :data:`repro.campaign.spec.WORKLOADS` is one stateless
:class:`Workload` instance in :data:`COMPONENTS`: the paper's named
applications (quickstart, sync tour, the Fig. 5 video-game framework and
its energy-profile variant), the RTK-Spec scheduler comparison, the
legacy seeded ``synthetic`` periodic sets, and the fully-declarative
``generated`` family the :mod:`repro.workload.families` generator emits.
Each builds its scenario from the spec's own fields; the event streams
and metrics are pinned by ``tests/campaign/test_golden_streams.py``.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.spec import MAX_PRIORITY, WORKLOADS, ScenarioSpec, SpecError
from repro.core.events import ExecutionContext
from repro.sysc.kernel import Simulator
from repro.sysc.time import SimTime
from repro.workload.components import (
    ScenarioBuild,
    Workload,
    instantiate_kernel,
    platform_kind,
)
from repro.workload.tasks import (
    CyclicDef,
    TaskPlan,
    exact_ns,
    generated_plan,
    install_rtk_plan,
    parse_taskset,
    tkernel_main,
)


def _knob(spec: ScenarioSpec, name: str) -> Any:
    """The numeric knob *name* of *spec*, set or its row's default, as the
    row's kind (``ScenarioSpec.validate`` checked it before ``compose``
    handed the spec over)."""
    kind, default, _ = WORKLOADS[spec.workload][1][name]
    value = spec.extra.get(name, default)
    return value if value is None else kind(value)


class QuickstartWorkload(Workload):
    """Producer/consumer pairs over semaphores plus a cyclic heartbeat."""

    def resolve(self, spec: ScenarioSpec) -> Dict[str, Any]:
        pairs = max(1, spec.task_count // 2)
        return {
            "pairs": pairs,
            "items": _knob(spec, "items"),
            "produce_period_ms": spec.period_ms,
            "consume_ms": max(spec.period_ms / 3.0, 0.5),
            "heartbeat_ms": _knob(spec, "heartbeat_ms"),
            "tasks": [
                name
                for pair in range(pairs)
                for name in (f"producer{pair}", f"consumer{pair}")
            ],
            "handlers": ["heartbeat"],
        }

    def build(self, spec: ScenarioSpec, simulator: Simulator) -> ScenarioBuild:
        # Wire exactly the parameters resolve() advertises: `repro describe`
        # and the run can never drift apart.
        params = self.resolve(spec)
        items = params["items"]
        heartbeat_ms = params["heartbeat_ms"]
        pairs = params["pairs"]
        produce_period_ms = params["produce_period_ms"]
        consume_ms = params["consume_ms"]
        counters = {"produced": 0, "consumed": 0, "heartbeats": 0}

        def user_main(kernel):
            api = kernel.api
            for pair in range(pairs):
                semid = yield from kernel.tk_cre_sem(
                    isemcnt=0, maxsem=items, name=f"items{pair}"
                )

                def producer(stacd, exinf, semid=semid):
                    for _ in range(items):
                        yield from api.sim_wait(
                            duration=SimTime.ms(produce_period_ms), label="produce"
                        )
                        yield from kernel.tk_sig_sem(semid)
                        counters["produced"] += 1

                def consumer(stacd, exinf, semid=semid):
                    for _ in range(items):
                        yield from kernel.tk_wai_sem(semid)
                        yield from api.sim_wait(
                            duration=SimTime.ms(consume_ms), label="consume"
                        )
                        counters["consumed"] += 1

                producer_id = yield from kernel.tk_cre_tsk(
                    producer, itskpri=10 + pair, name=f"producer{pair}"
                )
                consumer_id = yield from kernel.tk_cre_tsk(
                    consumer, itskpri=5 + pair, name=f"consumer{pair}"
                )
                yield from kernel.tk_sta_tsk(producer_id)
                yield from kernel.tk_sta_tsk(consumer_id)

            def heartbeat(exinf):
                yield from api.sim_wait(
                    duration=SimTime.us(200), context=ExecutionContext.HANDLER
                )
                counters["heartbeats"] += 1

            cycid = yield from kernel.tk_cre_cyc(
                heartbeat, cyctim=heartbeat_ms, name="heartbeat"
            )
            yield from kernel.tk_sta_cyc(cycid)

        kernel = instantiate_kernel(spec, simulator, user_main=user_main)
        return ScenarioBuild(
            simulator=simulator,
            api=kernel.api,
            kernel_statistics=kernel.statistics,
            workload_metrics=lambda: dict(counters),
        )


class SyncTourWorkload(Workload):
    """The sync-primitives tour: flags, mutexes, mailboxes, buffers, pools."""

    def resolve(self, spec: ScenarioSpec) -> Dict[str, Any]:
        return {
            "samples": _knob(spec, "samples"),
            "sample_ms": _knob(spec, "sample_ms"),
            "tasks": ["sensor", "processor", "supervisor"],
            "objects": ["eventflag", "mutex", "mailbox", "msgbuf", "mempool"],
        }

    def build(self, spec: ScenarioSpec, simulator: Simulator) -> ScenarioBuild:
        from repro.tkernel import TA_INHERIT, TA_WMUL, TWF_ANDW

        params = self.resolve(spec)
        samples = params["samples"]
        sample_ms = params["sample_ms"]
        counters = {"samples_sent": 0, "samples_processed": 0, "supervised": 0}

        def user_main(kernel):
            api = kernel.api
            flag_id = yield from kernel.tk_cre_flg(
                iflgptn=0, flgatr=TA_WMUL, name="phases"
            )
            mutex_id = yield from kernel.tk_cre_mtx(mtxatr=TA_INHERIT, name="shared")
            mailbox_id = yield from kernel.tk_cre_mbx(name="commands")
            buffer_id = yield from kernel.tk_cre_mbf(
                bufsz=64, maxmsz=16, name="samples"
            )
            pool_id = yield from kernel.tk_cre_mpf(mpfcnt=3, blfsz=32, name="pool")

            def sensor(stacd, exinf):
                for sample in range(samples):
                    yield from api.sim_wait(
                        duration=SimTime.ms(sample_ms), label="sample"
                    )
                    yield from kernel.tk_snd_mbf(buffer_id, ("sample", sample), size=4)
                    yield from kernel.tk_set_flg(flag_id, 0b01)
                    counters["samples_sent"] += 1
                yield from kernel.tk_snd_mbx(mailbox_id, "shutdown")
                yield from kernel.tk_set_flg(flag_id, 0b10)

            def processor(stacd, exinf):
                while True:
                    ercd, payload, size = yield from kernel.tk_rcv_mbf(
                        buffer_id, tmout=50
                    )
                    if ercd != 0:
                        return
                    yield from kernel.tk_loc_mtx(mutex_id)
                    yield from api.sim_wait(duration=SimTime.ms(1), label="process")
                    yield from kernel.tk_unl_mtx(mutex_id)
                    ercd, block = yield from kernel.tk_get_mpf(pool_id)
                    counters["samples_processed"] += 1
                    yield from kernel.tk_rel_mpf(pool_id, block)

            def supervisor(stacd, exinf):
                yield from kernel.tk_wai_flg(flag_id, 0b11, TWF_ANDW)
                yield from kernel.tk_rcv_mbx(mailbox_id)
                counters["supervised"] += 1

            for name, fn, pri in [("sensor", sensor, 10), ("processor", processor, 8),
                                  ("supervisor", supervisor, 5)]:
                task_id = yield from kernel.tk_cre_tsk(fn, itskpri=pri, name=name)
                yield from kernel.tk_sta_tsk(task_id)

        kernel = instantiate_kernel(spec, simulator, user_main=user_main)
        return ScenarioBuild(
            simulator=simulator,
            api=kernel.api,
            kernel_statistics=kernel.statistics,
            workload_metrics=lambda: dict(counters),
        )


class VideogameWorkload(Workload):
    """Full Fig. 5 co-simulation: video game + i8051 BFM + GUI widgets.

    The i8051 platform of these scenarios is monolithic by construction —
    :class:`~repro.app.framework.CoSimulationFramework` wires BFM, kernel,
    application and widgets in one pass — so the build hands the spec's
    platform and kernel knobs to the framework instead of assembling the
    parts itself.  The ``energy_profile`` workload (Fig. 7) is this
    component too; its row adds the render budget knob.
    """

    def resolve(self, spec: ScenarioSpec) -> Dict[str, Any]:
        resolved: Dict[str, Any] = {
            "application": "videogame",
            "lcd_update_period_ms": spec.bfm_access_period_ms,
            "tasks": ["T1_lcd", "T2_keypad", "T3_ssd", "T4_idle"],
            "handlers": ["H1_cyclic", "H2_alarm", "keypad_isr"],
        }
        # The energy profile's row adds the render budget; the GUI callback
        # cost (Table 2's GUI penalty) has no default, so it shows when set.
        for name in WORKLOADS[spec.workload][1]:
            value = _knob(spec, name)
            if value is not None:
                resolved[name] = value
        return resolved

    def build(self, spec: ScenarioSpec, simulator: Simulator) -> ScenarioBuild:
        from repro.app.framework import CoSimulationFramework, FrameworkConfig

        params = self.resolve(spec)
        config = FrameworkConfig.from_knobs(
            duration_ms=spec.duration_ms,
            gui_enabled=spec.gui_enabled,
            lcd_update_period_ms=spec.bfm_access_period_ms,
            key_period_ms=params["key_period_ms"],
            render_cycles=params.get("render_cycles"),
            gui_callback_us=params.get("gui_callback_us"),
            tick_ms=spec.tick_ms,
        )
        framework = CoSimulationFramework(config, name=spec.name,
                                          simulator=simulator)

        def workload_metrics() -> Dict[str, Any]:
            application = framework.application.summary()
            bfm = framework.bfm.access_statistics()
            framework.widgets.battery.update()
            return {
                "frames_rendered": application["frames_rendered"],
                "keys_handled": application["keys_handled"],
                "score": application["score"],
                "bus_accesses": bfm["bus_accesses"],
                "interrupts_raised": bfm["interrupts_raised"],
                "gui_callbacks": framework.widgets.callback_count(),
                "battery_remaining_fraction":
                    framework.widgets.battery.remaining_fraction,
            }

        return ScenarioBuild(
            simulator=framework.simulator,
            api=framework.api,
            kernel_statistics=framework.kernel.statistics,
            workload_metrics=workload_metrics,
        )


class TaskSetWorkload(Workload):
    """A workload whose software is a job plan, which a subclass's
    ``plan(spec)`` builds from the spec alone (:class:`TaskPlan` and
    :class:`CyclicDef` lists) and its kernel API's interpreter runs."""

    #: The counters the interpreter keeps, each from 0.
    COUNTERS = ("jobs_completed",)
    #: Whether :meth:`metrics` reads each task's completion time in ms
    #: (kept on RTK-Spec only).
    TIMED = False

    def metrics(self, counters: Dict[str, int],
                completions: Optional[Dict[str, float]]) -> Dict[str, Any]:
        return dict(counters)

    def build(self, spec: ScenarioSpec, simulator: Simulator) -> ScenarioBuild:
        platform = platform_kind(spec)
        plans, cyclics = self.plan(spec)
        counters = dict.fromkeys(self.COUNTERS, 0)
        completions: Optional[Dict[str, float]] = {} if self.TIMED else None
        if spec.kernel == "tkernel":
            kernel = instantiate_kernel(
                spec, simulator, user_main=tkernel_main(plans, cyclics, counters),
                rtc=platform == "rtc")
        else:
            kernel = instantiate_kernel(spec, simulator)
            install_rtk_plan(kernel, plans, counters, completions)
        return ScenarioBuild(
            simulator=simulator,
            api=kernel.api,
            kernel_statistics=kernel.statistics,
            workload_metrics=lambda: self.metrics(counters, completions),
        )


class SchedulerComparisonWorkload(TaskSetWorkload):
    """An identical one-shot task set run under the chosen RTK-Spec kernel."""

    TIMED = True

    @staticmethod
    def task_set(spec: ScenarioSpec) -> List[Tuple[str, int, float]]:
        """The fixed four-task workload of the scheduler-comparison example,
        extended deterministically when the spec asks for more tasks."""
        base = [
            ("logger", 30, 12.0),
            ("control", 5, 6.0),
            ("comms", 15, 9.0),
            ("background", 40, 15.0),
        ]
        tasks = base[: spec.task_count]
        rng = random.Random(spec.seed)
        while len(tasks) < spec.task_count:
            index = len(tasks)
            tasks.append(
                (f"extra{index}", rng.randrange(5, 45), float(rng.randrange(4, 16)))
            )
        if spec.priorities:
            tasks = [
                (name, priority, execution_ms)
                for (name, _, execution_ms), priority
                in zip(tasks, spec.priorities)
            ]
        return tasks

    def resolve(self, spec: ScenarioSpec) -> Dict[str, Any]:
        return {
            "tasks": [
                {"name": name, "priority": priority, "execution_ms": execution_ms}
                for name, priority, execution_ms in self.task_set(spec)
            ],
        }

    def plan(self, spec: ScenarioSpec) -> Tuple[List[TaskPlan], List[CyclicDef]]:
        return [TaskPlan(name, priority, name, execution_ms, [None])
                for name, priority, execution_ms in self.task_set(spec)], []

    def metrics(self, counters: Dict[str, int],
                completions: Optional[Dict[str, float]]) -> Dict[str, Any]:
        return {
            "completions": len(completions),
            "completion_times_ms": {
                name: completions[name] for name in sorted(completions)
            },
            "makespan_ms": max(completions.values()) if completions else None,
        }


class SyntheticWorkload(TaskSetWorkload):
    """A seeded synthetic periodic task set on any kernel model.

    Predates the declarative ``generated`` family and stays for spec-hash
    compatibility: existing stored results and the builtin
    ``synthetic-tkernel``/``synthetic-rtk`` scenarios keep their cache keys.
    """

    @staticmethod
    def task_set(spec: ScenarioSpec) -> List[Tuple[str, int, float, float]]:
        """Draw a periodic task set (name, priority, period_ms, execution_ms)
        from the spec's seed.  Same seed, same set — on every host."""
        rng = random.Random(spec.seed)
        tasks = []
        for index in range(spec.task_count):
            period = spec.period_ms * rng.choice((1, 2, 4))
            execution = max(0.5, round(period * rng.uniform(0.1, 0.4), 3))
            if spec.priorities:
                priority = spec.priorities[index]
            else:
                priority = 5 + rng.randrange(0, 40)
            tasks.append((f"syn{index}", priority, period, execution))
        return tasks

    def resolve(self, spec: ScenarioSpec) -> Dict[str, Any]:
        return {
            "jobs": _knob(spec, "jobs"),
            "tasks": [
                {"name": name, "priority": priority, "period_ms": period_ms,
                 "execution_ms": execution_ms}
                for name, priority, period_ms, execution_ms in self.task_set(spec)
            ],
        }

    def plan(self, spec: ScenarioSpec) -> Tuple[List[TaskPlan], List[CyclicDef]]:
        jobs = _knob(spec, "jobs")
        gap_of = int if spec.kernel == "tkernel" else exact_ns
        return [TaskPlan(name, priority, "job", execution_ms,
                         [gap_of(period_ms)] * jobs)
                for name, priority, period_ms, execution_ms
                in self.task_set(spec)], []


class GeneratedWorkload(TaskSetWorkload):
    """A fully-declarative task-set workload, usually family-generated.

    The spec's ``extra['tasks']`` (a list of
    :class:`~repro.workload.tasks.TaskDef` documents) and optional
    ``extra['cyclics']`` carry the whole task graph as plain JSON; the
    optional ``extra['platform']`` knob picks ``bare`` (default) or ``rtc``
    (kernel tick driven by a BFM real-time clock, tkernel only; see
    :func:`~repro.workload.components.platform_kind`).
    """

    COUNTERS = ("jobs_completed", "service_rounds", "handler_fires")

    def _taskset(self, spec: ScenarioSpec):
        """The parsed task set, checked against *spec*'s kernel: its
        priority range, and on RTK-Spec no service mix or cyclic handler."""
        tasks, cyclics = parse_taskset(
            spec.extra.get("tasks", ()), spec.extra.get("cyclics", ())
        )
        rtk = spec.kernel != "tkernel"
        if rtk and cyclics:
            raise SpecError(
                f"cyclic handlers need kernel 'tkernel', not {spec.kernel!r}")
        lowest = MAX_PRIORITY[spec.kernel]
        for task in tasks:
            if rtk and task.services:
                raise SpecError(
                    f"task {task.name!r} has a service-call mix, which "
                    f"needs kernel 'tkernel', not {spec.kernel!r}")
            if task.priority > lowest:
                raise SpecError(
                    f"task {task.name!r}: priority {task.priority} is outside "
                    f"kernel {spec.kernel!r}'s range [1, {lowest}]")
        return tasks, cyclics

    def resolve(self, spec: ScenarioSpec) -> Dict[str, Any]:
        tasks, cyclics = self._taskset(spec)
        return {
            "seed": spec.seed,
            "tasks": [task.to_dict() for task in tasks],
            "cyclics": [cyclic.to_dict() for cyclic in cyclics],
        }

    def plan(self, spec: ScenarioSpec) -> Tuple[List[TaskPlan], List[CyclicDef]]:
        tasks, cyclics = self._taskset(spec)
        return generated_plan(tasks, spec.seed, spec.kernel), cyclics


#: name -> workload component: one stateless instance per workload of
#: :data:`repro.campaign.spec.WORKLOADS` (looked up by ``compose``).
COMPONENTS: Dict[str, Workload] = {
    "quickstart": QuickstartWorkload(),
    "sync_tour": SyncTourWorkload(),
    "videogame": VideogameWorkload(),
    "energy_profile": VideogameWorkload(),
    "scheduler_comparison": SchedulerComparisonWorkload(),
    "synthetic": SyntheticWorkload(),
    "generated": GeneratedWorkload(),
}

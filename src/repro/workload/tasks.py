"""Declarative task sets: arrival laws, compute bursts, service-call mixes.

A generated scenario's software is a list of :class:`TaskDef` documents
(plus optional :class:`CyclicDef` handler patterns) carried in the spec's
``extra["tasks"]`` knob — plain JSON, so task graphs flow through
``spec_hash``, the result store and the shard planner exactly like every
other spec field.

Each task releases a finite number of *jobs*.  A job is: a compute burst
(``execution_ms`` of SIM_Wait), an optional service-call mix (semaphore,
event-flag or mailbox round-trips on shared kernel objects — deadlock-free
by construction because every blocking call is preceded by its own post),
then the arrival gap to the next release drawn from the task's arrival law:

=============  =====================================================
``periodic``   fixed ``period_ms`` gap
``jittered``   ``period_ms`` plus a seeded uniform jitter in
               ``[0, jitter_ms]``
``sporadic``   a seeded uniform gap in ``[min_gap_ms, max_gap_ms]``
``bursty``     ``burst_size`` releases ``intra_gap_ms`` apart, then a
               ``burst_gap_ms`` pause
=============  =====================================================

The gap starts when the job ends, not when it was released: both
interpreters sleep for the gap *after* each job.  So ``periodic`` does
not release job k at k·T.  Each release drifts by the previous job's
response time (plus tick alignment on RTK-Spec TRON, whose ``tk_dly_tsk``
takes whole milliseconds).  A ``periodic`` task is therefore a sporadic
task with minimum inter-release time T = ``period_ms``, and ``jittered``
likewise with T = ``period_ms`` at the least.

Every workload with a task set turns its spec into a *job plan* before
anything runs: one :class:`TaskPlan` per task, in creation order, with
its name, priority, exec label and service mix, and per job the compute
time in int ns and the gap the kernel applies after the job (``None``:
no sleep).  A plan is a pure function of the spec: gaps are drawn up
front, in job order, from each task's own ``random.Random`` seeded via
:func:`~repro.campaign.spec.derive_seed` (no wall clock, no global RNG).
One interpreter per kernel API runs plans, and nothing else runs a task
set: :func:`tkernel_main` (RTK-Spec TRON service calls, shared objects,
cyclic handlers) and :func:`install_rtk_plan` (RTK-Spec I/II
create/start/delay).  The workloads' own rules, stated once:

* ``generated``: a T-Kernel gap is ``max(1, int(round(gap)))`` whole ms;
  no sleep follows the last job; the label is the task's name.
* ``synthetic``: a T-Kernel gap is ``int(period_ms)``, truncated; a
  sleep follows every job, the last too; the label is ``"job"``.
* ``scheduler_comparison`` (RTK-Spec only): one job, no sleep; the
  label is the task's name.
* On RTK-Spec a gap is exact: ``SimTime.ms(gap)`` in int ns.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.spec import SpecError, derive_seed, fields_equal
from repro.sysc.time import SimTime

#: Supported arrival laws.
ARRIVAL_LAWS = ("periodic", "jittered", "sporadic", "bursty")

#: Service-call mixes a task's job can exercise (RTK-Spec TRON only).
SERVICE_CALLS = ("sem", "flag", "mbx")

#: Fields each arrival law resolves (beyond the common set).
_LAW_FIELDS = {
    "periodic": ("period_ms",),
    "jittered": ("period_ms", "jitter_ms"),
    "sporadic": ("min_gap_ms", "max_gap_ms"),
    "bursty": ("burst_size", "intra_gap_ms", "burst_gap_ms"),
}


class TaskDef:
    """One declarative task: arrival law + compute burst + service mix.

    Task definitions compare by value, field by field.
    """

    #: The field table: constructor keywords and slots.
    FIELDS = (
        "name", "priority", "execution_ms", "law", "jobs", "period_ms",
        "jitter_ms", "min_gap_ms", "max_gap_ms", "burst_size",
        "intra_gap_ms", "burst_gap_ms", "services",
    )
    __slots__ = FIELDS

    def __init__(
        self,
        name: str,
        priority: int = 10,
        execution_ms: float = 1.0,
        law: str = "periodic",
        jobs: int = 3,
        period_ms: float = 10.0,
        jitter_ms: float = 2.0,
        min_gap_ms: float = 5.0,
        max_gap_ms: float = 20.0,
        burst_size: int = 3,
        intra_gap_ms: float = 1.0,
        burst_gap_ms: float = 20.0,
        services: Tuple[str, ...] = (),
    ):
        self.name = name
        self.priority = priority
        self.execution_ms = execution_ms
        self.law = law
        self.jobs = jobs
        self.period_ms = period_ms
        self.jitter_ms = jitter_ms
        self.min_gap_ms = min_gap_ms
        self.max_gap_ms = max_gap_ms
        self.burst_size = burst_size
        self.intra_gap_ms = intra_gap_ms
        self.burst_gap_ms = burst_gap_ms
        self.services = services

    __eq__ = fields_equal

    # ------------------------------------------------------------------
    # Validation & serialization
    # ------------------------------------------------------------------
    def validate(self) -> "TaskDef":
        # Type checks come first — a mistyped task document must surface as
        # a one-line SpecError, never as a TypeError from a comparison.
        def is_number(value) -> bool:
            return isinstance(value, (int, float)) and not isinstance(value, bool)

        def is_int(value) -> bool:
            return isinstance(value, int) and not isinstance(value, bool)

        problems: List[str] = []
        if not isinstance(self.name, str) or not self.name:
            problems.append("name must be a non-empty string")
        if self.law not in ARRIVAL_LAWS:
            problems.append(
                f"unknown arrival law {self.law!r} (choose from {ARRIVAL_LAWS})"
            )
        if not is_int(self.priority) or self.priority < 1:
            problems.append("priority must be a positive integer")
        if not is_number(self.execution_ms) or self.execution_ms <= 0:
            problems.append("execution_ms must be a positive number")
        if not is_int(self.jobs) or self.jobs < 1:
            problems.append("jobs must be an integer, at least 1")
        if self.law in ("periodic", "jittered") and (
            not is_number(self.period_ms) or self.period_ms <= 0
        ):
            problems.append("period_ms must be a positive number")
        if self.law == "jittered" and (
            not is_number(self.jitter_ms) or self.jitter_ms < 0
        ):
            problems.append("jitter_ms must be a non-negative number")
        if self.law == "sporadic" and not (
            is_number(self.min_gap_ms) and is_number(self.max_gap_ms)
            and 0 < self.min_gap_ms <= self.max_gap_ms
        ):
            problems.append("sporadic needs 0 < min_gap_ms <= max_gap_ms")
        if self.law == "bursty" and not (
            is_int(self.burst_size) and self.burst_size >= 1
            and is_number(self.intra_gap_ms) and self.intra_gap_ms > 0
            and is_number(self.burst_gap_ms) and self.burst_gap_ms > 0
        ):
            problems.append(
                "bursty needs burst_size >= 1 and positive intra/burst gaps"
            )
        if not isinstance(self.services, (list, tuple)):
            problems.append(f"services must be a list, got {self.services!r}")
        else:
            unknown_services = [s for s in self.services if s not in SERVICE_CALLS]
            if unknown_services:
                problems.append(
                    f"unknown service calls {unknown_services!r} "
                    f"(choose from {SERVICE_CALLS})"
                )
        if problems:
            raise SpecError(f"invalid task {self.name!r}: " + "; ".join(problems))
        return self

    def to_dict(self) -> Dict[str, Any]:
        """A minimal JSON-safe document: common fields + the law's fields."""
        document: Dict[str, Any] = {
            "name": self.name,
            "priority": self.priority,
            "execution_ms": self.execution_ms,
            "law": self.law,
            "jobs": self.jobs,
        }
        for field_name in _LAW_FIELDS.get(self.law, ()):
            document[field_name] = getattr(self, field_name)
        if self.services:
            document["services"] = list(self.services)
        return document

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskDef":
        payload = _document(cls, "task", data)
        if "services" in payload:
            services = payload["services"]
            if not isinstance(services, (list, tuple)):
                raise SpecError(
                    f"task {payload['name']!r}: services must be a list"
                )
            payload["services"] = tuple(services)
        return cls(**payload).validate()

    # ------------------------------------------------------------------
    # Arrival law
    # ------------------------------------------------------------------
    def gap_ms(self, rng: random.Random, job_index: int) -> float:
        """The seeded arrival gap after job *job_index* (milliseconds)."""
        if self.law == "periodic":
            return self.period_ms
        if self.law == "jittered":
            return round(self.period_ms + self.jitter_ms * rng.random(), 3)
        if self.law == "sporadic":
            return round(rng.uniform(self.min_gap_ms, self.max_gap_ms), 3)
        # bursty: short intra-burst gaps, a long pause after each burst
        if (job_index + 1) % self.burst_size == 0:
            return self.burst_gap_ms
        return self.intra_gap_ms


class CyclicDef:
    """A periodic handler pattern (RTK-Spec TRON cyclic handler)."""

    #: The field table: constructor keywords and slots.
    FIELDS = ("name", "period_ms", "execution_us")
    __slots__ = FIELDS

    def __init__(self, name: str, period_ms: int = 10, execution_us: int = 100):
        self.name = name
        self.period_ms = period_ms
        self.execution_us = execution_us

    def validate(self) -> "CyclicDef":
        if not isinstance(self.name, str) or not self.name:
            raise SpecError("cyclic handler needs a non-empty name")
        for field_name in ("period_ms", "execution_us"):
            value = getattr(self, field_name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise SpecError(
                    f"cyclic {self.name!r}: {field_name} must be an "
                    f"integer, at least 1"
                )
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "period_ms": self.period_ms,
            "execution_us": self.execution_us,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CyclicDef":
        return cls(**_document(cls, "cyclic", data)).validate()


def _document(cls: type, kind: str, data: Any) -> Dict[str, Any]:
    """A copy of *data*, a *kind* document with a name and only *cls*'s
    fields."""
    if not isinstance(data, Mapping):
        raise SpecError(f"{kind} must be a JSON object, got {type(data).__name__}")
    unknown = set(data).difference(cls.FIELDS)
    if unknown:
        raise SpecError(f"unknown {kind} fields: {sorted(unknown)}")
    if "name" not in data:
        raise SpecError(f"{kind} needs a 'name'")
    return dict(data)


def parse_taskset(
    tasks: Sequence[Mapping[str, Any]],
    cyclics: Sequence[Mapping[str, Any]] = (),
) -> Tuple[List[TaskDef], List[CyclicDef]]:
    """Parse and validate the declarative ``extra['tasks']``/``['cyclics']``."""
    if not isinstance(tasks, (list, tuple)) or not tasks:
        raise SpecError("generated workload needs a non-empty 'tasks' list")
    if not isinstance(cyclics, (list, tuple)):
        raise SpecError("'cyclics' must be a list")
    parsed_tasks = [TaskDef.from_dict(task) for task in tasks]
    names = [task.name for task in parsed_tasks]
    if len(set(names)) != len(names):
        raise SpecError(f"duplicate task names in task set: {names!r}")
    return parsed_tasks, [CyclicDef.from_dict(cyclic) for cyclic in cyclics]


# ----------------------------------------------------------------------
# Job plans and their two interpreters
# ----------------------------------------------------------------------
class TaskPlan:
    """One task of a job plan: what an interpreter creates and runs."""

    __slots__ = ("name", "priority", "label", "services", "jobs")

    def __init__(self, name: str, priority: int, label: str,
                 execution_ms: float, gaps: Sequence[Any],
                 services: Sequence[str] = ()):
        self.name = name
        self.priority = priority
        #: The ``sim_wait`` label of every job's compute burst.
        self.label = label
        self.services = tuple(services)
        execution_ns = SimTime.ms(execution_ms).nanoseconds
        #: ``(execution ns, gap)`` per job, one job per gap; the gap is in
        #: the unit the kernel's sleep takes, ``None`` for no sleep.
        self.jobs = [(execution_ns, gap) for gap in gaps]


def rounded_ms(gap_ms: float) -> int:
    """A generated gap as ``tk_dly_tsk`` takes it: whole ms, at least 1."""
    return max(1, int(round(gap_ms)))


def exact_ns(gap_ms: float) -> int:
    """A gap as RTK-Spec's ``delay`` takes it: exact int ns."""
    return SimTime.ms(gap_ms).nanoseconds


def generated_plan(
    tasks: Sequence[TaskDef], seed: int, kernel: str
) -> List[TaskPlan]:
    """The job plan of a generated task set on *kernel*."""
    gap_of = rounded_ms if kernel == "tkernel" else exact_ns
    plans = []
    for index, task in enumerate(tasks):
        rng = random.Random(derive_seed(seed, index, task.name))
        gaps: List[Any] = [gap_of(task.gap_ms(rng, job))
                           for job in range(task.jobs - 1)]
        plans.append(TaskPlan(task.name, task.priority, task.name,
                              task.execution_ms, gaps + [None], task.services))
    return plans


def tkernel_main(
    plans: Sequence[TaskPlan],
    cyclics: Sequence[CyclicDef],
    counters: Dict[str, int],
):
    """An RTK-Spec TRON initial task that installs and runs a job plan.

    It creates the shared semaphore, event flag and mailbox the plan's
    service mixes use, then creates and starts the tasks in plan order,
    then the cyclic handlers.  Each mix is a round-trip that posts before
    it blocks, so no plan can deadlock.  A refused ``tk_cre_*`` or
    ``tk_sta_*`` fails the run with a ``SpecError`` naming code and object.
    """
    from repro.core.events import ExecutionContext
    from repro.tkernel.errors import error_name

    needs = {service for plan in plans for service in plan.services}

    def user_main(kernel):
        api = kernel.api

        def install(service: str, what: str, /, *args, **kwargs):
            code = yield from getattr(kernel, service)(*args, **kwargs)
            if code < 0:
                raise SpecError(
                    f"cannot install {what!r}: {service} returned "
                    f"{error_name(code)}")
            return code

        sem_id = flag_id = mbx_id = None
        if "sem" in needs:
            sem_id = yield from install(
                "tk_cre_sem", "wl.sem", isemcnt=0, maxsem=32767, name="wl.sem")
        if "flag" in needs:
            flag_id = yield from install(
                "tk_cre_flg", "wl.flg", iflgptn=0, name="wl.flg")
        if "mbx" in needs:
            mbx_id = yield from install("tk_cre_mbx", "wl.mbx", name="wl.mbx")

        def make_body(plan: TaskPlan):
            def body(stacd, exinf):
                for job, (execution_ns, gap) in enumerate(plan.jobs):
                    yield from api.sim_wait(duration=execution_ns,
                                            label=plan.label)
                    for service in plan.services:
                        if service == "sem":
                            yield from kernel.tk_sig_sem(sem_id)
                            yield from kernel.tk_wai_sem(sem_id)
                        elif service == "flag":
                            yield from kernel.tk_set_flg(flag_id, 0b1)
                            yield from kernel.tk_clr_flg(flag_id, 0)
                        elif service == "mbx":
                            yield from kernel.tk_snd_mbx(mbx_id, (plan.name, job))
                            yield from kernel.tk_rcv_mbx(mbx_id)
                        counters["service_rounds"] += 1
                    counters["jobs_completed"] += 1
                    if gap is not None:
                        yield from kernel.tk_dly_tsk(gap)

            return body

        for plan in plans:
            task_id = yield from install(
                "tk_cre_tsk", plan.name, make_body(plan),
                itskpri=plan.priority, name=plan.name)
            yield from install("tk_sta_tsk", plan.name, task_id)

        def make_handler(cyclic: CyclicDef):
            def handler(exinf):
                yield from api.sim_wait(
                    duration=SimTime.us(cyclic.execution_us),
                    context=ExecutionContext.HANDLER,
                )
                counters["handler_fires"] += 1

            return handler

        for cyclic in cyclics:
            cyc_id = yield from install(
                "tk_cre_cyc", cyclic.name, make_handler(cyclic),
                cyctim=cyclic.period_ms, name=cyclic.name)
            yield from install("tk_sta_cyc", cyclic.name, cyc_id)

    return user_main


def install_rtk_plan(
    kernel,
    plans: Sequence[TaskPlan],
    counters: Dict[str, int],
    completions: Optional[Dict[str, float]] = None,
) -> None:
    """Create and start a job plan's tasks on an RTK-Spec I/II kernel,
    whose API is create/start/delay: no service mix, no cyclic handler.
    With *completions*, each task's entry is the time in ms at which its
    latest job finished."""
    api = kernel.api

    def make_body(plan: TaskPlan):
        def body():
            for execution_ns, gap in plan.jobs:
                yield from api.sim_wait(duration=execution_ns, label=plan.label)
                counters["jobs_completed"] += 1
                if completions is not None:
                    completions[plan.name] = kernel.simulator.now.to_ms()
                if gap is not None:
                    yield from kernel.delay(gap)

        return body

    for plan in plans:
        kernel.start_task(kernel.create_task(
            make_body(plan), priority=plan.priority, name=plan.name))

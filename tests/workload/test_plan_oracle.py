"""The job plan against the stream: what was planned is what ran.

For every builtin with a task set and a drawn family on all three
kernels, the job plan is rebuilt from the run's stored spec document with
no :class:`~repro.sysc.kernel.Simulator` (its constructor is poisoned),
and checked against the run's ``sched`` stream, task by task:

* each job the stream shows complete ran exactly its planned
  ``context: task`` exec time, in int ns;
* the completed-job counts add up to the run's own count
  (``jobs_completed``, or per task the scheduler comparison's
  ``completion_times_ms``).

A job's exec time is the sum of its thread's ``task`` slices; the job
ends at the thread's next ``sleep`` marker or service-call slice.  The
last job the stream shows is complete when it ran its whole plan, and
otherwise was cut by the horizon.
"""

import pytest

from repro.campaign.registry import get_scenario
from repro.campaign.runner import run_spec
from repro.campaign.spec import ScenarioSpec
from repro.sysc.kernel import Simulator
from repro.workload.builtins import COMPONENTS
from repro.workload.families import FamilySpec, expand_family
from tests.workload.test_task_set_pins import SYNTHETIC_SPECS

#: Builtins whose workload is a task set.
TASK_SET_BUILTINS = (
    "synthetic-tkernel", "synthetic-rtk", "rtk-priority", "rtk-round-robin")

#: A drawn family on all three kernels, with service mixes, cyclic
#: handlers and the rtc platform.
ORACLE_FAMILY = FamilySpec(
    name="plan-oracle", count=18, seed=7,
    kernels=("tkernel", "rtkspec1", "rtkspec2"), duration_ms=50.0,
    service_rate=0.5, cyclic_rate=0.5, rtc_rate=0.3)


def oracle_specs():
    return ([get_scenario(name) for name in TASK_SET_BUILTINS]
            + expand_family(ORACLE_FAMILY) + SYNTHETIC_SPECS)


def job_totals(events, names):
    """Task name -> the exec ns of each job its stream shows, in order."""
    jobs = {name: [0] for name in names}
    for event in events:
        totals = jobs.get(event.get("thread"))
        if totals is None:
            continue
        if event["kind"] == "exec" and event["context"] == "task":
            totals[-1] += round(event["dur_ms"] * 1_000_000)
        elif totals[-1] and (event["kind"] == "sleep" or (
                event["kind"] == "exec"
                and event["context"] == "service_call")):
            totals.append(0)
    return {name: [ns for ns in totals if ns] for name, totals in jobs.items()}


def completed_jobs(plan, totals):
    """How many of *plan*'s jobs *totals* shows complete."""
    planned = [execution_ns for execution_ns, _ in plan.jobs]
    assert len(totals) <= len(planned), plan.name
    if not totals:
        return 0
    # Every job but the last one shown ran to its end.
    assert totals[:-1] == planned[:len(totals) - 1], plan.name
    assert totals[-1] <= planned[len(totals) - 1], plan.name
    return len(totals) - (totals[-1] < planned[len(totals) - 1])


@pytest.fixture(scope="module")
def runs():
    return [(result.spec, result.events, result.metrics["workload_metrics"])
            for result in (run_spec(spec) for spec in oracle_specs())]


@pytest.fixture
def no_simulator(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("a job plan constructed a Simulator")

    monkeypatch.setattr(Simulator, "__init__", forbidden)


def test_every_run_ran_its_plan(runs, no_simulator):
    checked_jobs = 0
    for document, events, metrics in runs:
        spec = ScenarioSpec.from_dict(document).validate()
        plans, _ = COMPONENTS[spec.workload].plan(spec)
        totals = job_totals(events, [plan.name for plan in plans])
        completed = {plan.name: completed_jobs(plan, totals[plan.name])
                     for plan in plans}
        if spec.workload == "scheduler_comparison":
            assert {name for name, count in completed.items() if count} \
                == set(metrics["completion_times_ms"]), spec.name
        else:
            assert sum(completed.values()) == metrics["jobs_completed"], \
                spec.name
        checked_jobs += sum(completed.values())
    assert checked_jobs > 150


def test_the_oracle_sees_a_wrong_plan(runs, no_simulator):
    """A plan whose exec time is off by one ns does not match the stream."""
    document, events, _ = runs[0]
    spec = ScenarioSpec.from_dict(document).validate()
    plan = COMPONENTS[spec.workload].plan(spec)[0][0]
    totals = job_totals(events, [plan.name])[plan.name]
    plan.jobs = tuple((execution_ns + 1, gap)
                      for execution_ns, gap in plan.jobs)
    assert len(totals) > 1
    with pytest.raises(AssertionError):
        completed_jobs(plan, totals)

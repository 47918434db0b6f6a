"""The family draw code of the ``random.Random`` method era, kept as the
oracle for :func:`repro.workload.families.family_member`.

``family_member`` now draws every value through one rejection sampler
over ``getrandbits`` plus ``random()``; this module keeps the draws as the
``random`` methods made them, so a test can show both give byte-identical
member specs on this interpreter.
"""

import random
from typing import Any, Dict, List

from repro.campaign.spec import ScenarioSpec, SpecError, derive_seed
from repro.workload.tasks import SERVICE_CALLS


def reference_member(family, index):
    """Member *index* of *family*, drawn through ``random.Random``'s
    ``choice``, ``randint``, ``randrange``, ``uniform`` and ``sample``."""
    if not 0 <= index < family.count:
        raise SpecError(
            f"family {family.name!r} has members [0, {family.count - 1}], "
            f"got index {index}"
        )
    rng = random.Random(derive_seed(family.seed, index, family.name))
    kernel = rng.choice(family.kernels)
    task_count = rng.randint(*family.task_count)
    on_tkernel = kernel == "tkernel"

    tasks: List[Dict[str, Any]] = []
    for task_index in range(task_count):
        law = rng.choice(family.laws)
        period = rng.choice(family.period_choices_ms)
        utilization = rng.uniform(*family.utilization)
        task: Dict[str, Any] = {
            "name": f"t{task_index}",
            "priority": 5 + rng.randrange(0, 40),
            "execution_ms": max(0.1, round(period * utilization, 3)),
            "law": law,
            "jobs": rng.randint(*family.jobs),
        }
        if law in ("periodic", "jittered"):
            task["period_ms"] = period
        if law == "jittered":
            task["jitter_ms"] = round(period * 0.25, 3)
        elif law == "sporadic":
            task["min_gap_ms"] = round(period * 0.5, 3)
            task["max_gap_ms"] = round(period * 1.5, 3)
        elif law == "bursty":
            task["burst_size"] = rng.randint(2, 4)
            task["intra_gap_ms"] = round(max(period * 0.1, 0.5), 3)
            task["burst_gap_ms"] = round(period * 2.0, 3)
        if on_tkernel and rng.random() < family.service_rate:
            count = rng.randint(1, len(SERVICE_CALLS))
            task["services"] = rng.sample(SERVICE_CALLS, count)
        tasks.append(task)

    extra: Dict[str, Any] = {"family": family.name, "member": index, "tasks": tasks}
    if on_tkernel and rng.random() < family.cyclic_rate:
        extra["cyclics"] = [{
            "name": "cyc0",
            "period_ms": int(rng.choice((5, 10, 20))),
            "execution_us": rng.randrange(50, 250),
        }]
    if on_tkernel and rng.random() < family.rtc_rate:
        extra["platform"] = "rtc"

    return ScenarioSpec(
        name=f"{family.name}/{index:04d}",
        kernel=kernel,
        workload="generated",
        duration_ms=family.duration_ms,
        task_count=task_count,
        tick_ms=family.tick_ms,
        seed=derive_seed(family.seed, index, f"{family.name}:member"),
        extra=extra,
    )

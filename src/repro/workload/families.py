"""Seeded workload-family generation: one small spec, unbounded scenarios.

A :class:`FamilySpec` is a compact generator document — count, seed, kernel
pool, task-count/utilization/period ranges, arrival-law and service-mix
rates.  :func:`expand_family` expands it into ``count`` *distinct but
reproducible* :class:`~repro.campaign.spec.ScenarioSpec` members: member
*i*'s task graph is sampled by a ``random.Random`` seeded from
``derive_seed(family.seed, i, family.name)`` — no wall clock, no global
RNG — so the same family document yields byte-identical members (and
therefore identical ``spec_hash`` cache keys) on every host, forever.
The draws consume only the generator's ``getrandbits`` and ``random()``
(see :func:`family_member`), never a ``random.Random`` method whose
algorithm a Python release may change.

Members are ordinary ``generated``-workload specs: they flow through the
result store, the sharded sweep executor and ``repro bench`` unchanged.
A family sweep is just::

    python -m repro batch --family family.json --cache sweep_cache --out out/
    python -m repro shard run --family family.json --shards 8 --index 3 ...

where ``family.json`` holds the ``to_dict`` form of a :class:`FamilySpec`.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Mapping, Tuple

from repro.campaign.spec import (
    KERNELS,
    ScenarioSpec,
    SpecError,
    derive_seed,
    fields_equal,
)
from repro.workload.tasks import ARRIVAL_LAWS, SERVICE_CALLS

#: Schema identifier of a family document on disk.
FAMILY_SCHEMA = "repro-workload-family/1"


class FamilySpec:
    """A seeded generator of ``generated``-workload scenario specs.

    Families compare by value, field by field.
    """

    #: The field table: constructor keywords, slots and document keys.
    FIELDS = (
        "name", "count", "seed", "kernels", "duration_ms", "tick_ms",
        "task_count", "jobs", "period_choices_ms", "utilization", "laws",
        "service_rate", "cyclic_rate", "rtc_rate",
    )
    __slots__ = FIELDS

    def __init__(
        self,
        name: str,
        count: int = 100,
        seed: int = 0,
        kernels: Tuple[str, ...] = ("tkernel",),
        duration_ms: float = 40.0,
        tick_ms: float = 1.0,
        task_count: Tuple[int, int] = (2, 5),
        jobs: Tuple[int, int] = (2, 4),
        period_choices_ms: Tuple[float, ...] = (5.0, 10.0, 20.0, 40.0),
        utilization: Tuple[float, float] = (0.05, 0.35),
        laws: Tuple[str, ...] = ARRIVAL_LAWS,
        service_rate: float = 0.5,
        cyclic_rate: float = 0.25,
        rtc_rate: float = 0.0,
    ):
        #: Family name; members are named ``<name>/<index>``.
        self.name = name
        #: How many members the family expands to.
        self.count = count
        #: Base seed all member sampling derives from.
        self.seed = seed
        #: Kernel models members are drawn from.
        self.kernels = kernels
        #: Simulated duration of every member, in milliseconds.
        self.duration_ms = duration_ms
        #: System tick of every member, in milliseconds.
        self.tick_ms = tick_ms
        #: Inclusive range of tasks per member.
        self.task_count = task_count
        #: Inclusive range of jobs per task.
        self.jobs = jobs
        #: Base periods sampled for each task, in milliseconds.
        self.period_choices_ms = period_choices_ms
        #: Per-task utilization range (execution = period × utilization).
        self.utilization = utilization
        #: Arrival laws members sample from.
        self.laws = laws
        #: Probability a (tkernel) task carries a service-call mix.
        self.service_rate = service_rate
        #: Probability a (tkernel) member gets a cyclic handler pattern.
        self.cyclic_rate = cyclic_rate
        #: Probability a (tkernel) member runs on the ``rtc`` platform.
        self.rtc_rate = rtc_rate

    __eq__ = fields_equal

    # ------------------------------------------------------------------
    # Validation & serialization
    # ------------------------------------------------------------------
    def validate(self) -> "FamilySpec":
        # Type checks come first — a mistyped family document must surface
        # as a one-line SpecError, never as a TypeError from a comparison.
        def is_number(value) -> bool:
            return isinstance(value, (int, float)) and not isinstance(value, bool)

        problems: List[str] = []
        if not isinstance(self.name, str) or not self.name:
            problems.append("name must be a non-empty string")
        if not isinstance(self.count, int) or isinstance(self.count, bool) \
                or self.count < 1:
            problems.append("count must be a positive integer")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            problems.append("seed must be an integer")
        if not isinstance(self.kernels, (list, tuple)) or not self.kernels:
            problems.append("kernels must be a non-empty list")
        else:
            for kernel in self.kernels:
                if kernel not in KERNELS:
                    problems.append(
                        f"unknown kernel {kernel!r} (choose from {KERNELS})"
                    )
        for field_name in ("duration_ms", "tick_ms"):
            value = getattr(self, field_name)
            if not is_number(value) or value <= 0:
                problems.append(f"{field_name} must be a positive number")
        for range_name in ("task_count", "jobs"):
            value = getattr(self, range_name)
            if not (
                isinstance(value, (list, tuple)) and len(value) == 2
                and all(isinstance(v, int) and not isinstance(v, bool)
                        for v in value)
                and 1 <= value[0] <= value[1]
            ):
                problems.append(
                    f"{range_name} must be an int range [lo, hi], 1 <= lo <= hi"
                )
        if not (
            isinstance(self.period_choices_ms, (list, tuple))
            and self.period_choices_ms
            and all(is_number(p) and p > 0 for p in self.period_choices_ms)
        ):
            problems.append("period_choices_ms must be positive and non-empty")
        if not (
            isinstance(self.utilization, (list, tuple))
            and len(self.utilization) == 2
            and all(is_number(u) for u in self.utilization)
            and 0 < self.utilization[0] <= self.utilization[1] < 1
        ):
            problems.append("utilization must be a range inside (0, 1)")
        if not isinstance(self.laws, (list, tuple)) or not self.laws:
            problems.append("laws must be a non-empty list")
        else:
            for law in self.laws:
                if law not in ARRIVAL_LAWS:
                    problems.append(
                        f"unknown arrival law {law!r} "
                        f"(choose from {ARRIVAL_LAWS})"
                    )
        for rate_name in ("service_rate", "cyclic_rate", "rtc_rate"):
            rate = getattr(self, rate_name)
            if not is_number(rate) or not 0.0 <= rate <= 1.0:
                problems.append(f"{rate_name} must be a number in [0, 1]")
        if problems:
            raise SpecError(f"invalid family {self.name!r}: " + "; ".join(problems))
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": FAMILY_SCHEMA,
            "name": self.name,
            "count": self.count,
            "seed": self.seed,
            "kernels": list(self.kernels),
            "duration_ms": self.duration_ms,
            "tick_ms": self.tick_ms,
            "task_count": list(self.task_count),
            "jobs": list(self.jobs),
            "period_choices_ms": list(self.period_choices_ms),
            "utilization": list(self.utilization),
            "laws": list(self.laws),
            "service_rate": self.service_rate,
            "cyclic_rate": self.cyclic_rate,
            "rtc_rate": self.rtc_rate,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FamilySpec":
        if not isinstance(data, Mapping):
            raise SpecError(
                f"family must be a JSON object, got {type(data).__name__}"
            )
        payload = dict(data)
        schema = payload.pop("schema", FAMILY_SCHEMA)
        if schema != FAMILY_SCHEMA:
            raise SpecError(
                f"family schema is {schema!r}, expected {FAMILY_SCHEMA!r}"
            )
        unknown = set(payload).difference(cls.FIELDS)
        if unknown:
            raise SpecError(f"unknown family fields: {sorted(unknown)}")
        if "name" not in payload:
            raise SpecError("family needs a 'name'")
        for tuple_field in ("kernels", "task_count", "jobs",
                            "period_choices_ms", "utilization", "laws"):
            if tuple_field in payload:
                value = payload[tuple_field]
                if not isinstance(value, (list, tuple)):
                    raise SpecError(
                        f"family field {tuple_field!r} must be a list"
                    )
                payload[tuple_field] = tuple(value)
        return cls(**payload).validate()


def load_family_file(path: str) -> FamilySpec:
    """Load and validate one :class:`FamilySpec` JSON document from *path*."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as error:
        raise SpecError(f"cannot read family file {path!r}: {error}") from None
    except json.JSONDecodeError as error:
        raise SpecError(
            f"family file {path!r} is not valid JSON: {error}"
        ) from None
    try:
        return FamilySpec.from_dict(document)
    except SpecError as error:
        raise SpecError(f"family file {path!r}: {error}") from None


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
def family_member(family: FamilySpec, index: int) -> ScenarioSpec:
    """Member *index* of *family*: a distinct, reproducible scenario spec.

    All sampling happens on a member-local ``random.Random`` seeded from
    the family seed, the member index and the family name, so any member
    can be regenerated in isolation without expanding the whole family.
    Every draw is ``rng.random()`` or one local ``below(n)``, the rejection
    sampler of ``Random._randbelow_with_getrandbits`` over
    ``rng.getrandbits``: a choice is ``seq[below(len(seq))]``, an inclusive
    range ``lo + below(hi - lo + 1)`` and a service mix the pool branch of
    ``Random.sample``.  The members are byte for byte what ``choice``,
    ``randint``, ``randrange``, ``uniform`` and ``sample`` drew, and depend
    only on the generator's raw output, not on those methods' algorithms,
    which the ``random`` docs allow to change between Python versions.
    The member is not validated here: a sweep validates every run it
    executes.
    """
    if not 0 <= index < family.count:
        raise SpecError(
            f"family {family.name!r} has members [0, {family.count - 1}], "
            f"got index {index}"
        )
    rng = random.Random(derive_seed(family.seed, index, family.name))
    getrandbits = rng.getrandbits
    unit = rng.random

    def below(n: int) -> int:
        """A uniform int in ``[0, n)``."""
        if n <= 0:
            raise SpecError(f"family {family.name!r}: empty choice or range")
        bits = n.bit_length()
        drawn = getrandbits(bits)
        while drawn >= n:
            drawn = getrandbits(bits)
        return drawn

    kernels = family.kernels
    laws = family.laws
    periods = family.period_choices_ms
    jobs_low, jobs_high = family.jobs
    low_utilization, high_utilization = family.utilization
    kernel = kernels[below(len(kernels))]
    task_low, task_high = family.task_count
    task_count = task_low + below(task_high - task_low + 1)
    on_tkernel = kernel == "tkernel"

    tasks: List[Dict[str, Any]] = []
    for task_index in range(task_count):
        law = laws[below(len(laws))]
        period = periods[below(len(periods))]
        utilization = (low_utilization
                       + (high_utilization - low_utilization) * unit())
        task: Dict[str, Any] = {
            "name": f"t{task_index}",
            "priority": 5 + below(40),
            "execution_ms": max(0.1, round(period * utilization, 3)),
            "law": law,
            "jobs": jobs_low + below(jobs_high - jobs_low + 1),
        }
        if law in ("periodic", "jittered"):
            task["period_ms"] = period
        if law == "jittered":
            task["jitter_ms"] = round(period * 0.25, 3)
        elif law == "sporadic":
            task["min_gap_ms"] = round(period * 0.5, 3)
            task["max_gap_ms"] = round(period * 1.5, 3)
        elif law == "bursty":
            task["burst_size"] = 2 + below(3)
            task["intra_gap_ms"] = round(max(period * 0.1, 0.5), 3)
            task["burst_gap_ms"] = round(period * 2.0, 3)
        if on_tkernel and unit() < family.service_rate:
            pool = list(SERVICE_CALLS)
            size = len(pool)
            services = []
            for drawn in range(1 + below(size)):
                pick = below(size - drawn)
                services.append(pool[pick])
                pool[pick] = pool[size - drawn - 1]
            task["services"] = services
        tasks.append(task)

    extra: Dict[str, Any] = {"family": family.name, "member": index, "tasks": tasks}
    if on_tkernel and unit() < family.cyclic_rate:
        extra["cyclics"] = [{
            "name": "cyc0",
            "period_ms": (5, 10, 20)[below(3)],
            "execution_us": 50 + below(200),
        }]
    if on_tkernel and unit() < family.rtc_rate:
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


def expand_family(family: FamilySpec) -> List[ScenarioSpec]:
    """Every member of *family*, in index order."""
    family.validate()
    return [family_member(family, index) for index in range(family.count)]

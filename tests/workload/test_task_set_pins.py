"""Pins of the task-set workloads' streams: ``generated`` and ``synthetic``.

The golden streams pin no ``generated`` member, and their ``synthetic``
specs use ``period_ms=10``, where truncating and rounding a gap give the
same whole milliseconds.  These pins cover what they miss:

* a small drawn family on all three kernels, with every arrival law on
  each, every service call, a cyclic handler and the ``rtc`` platform;
* ``synthetic`` on all three kernels with a non-integer ``period_ms``
  (T-Kernel truncates its gap to whole ms), a sub-millisecond one (a
  zero-ms ``tk_dly_tsk``) and ``jobs=0``.

Each pin is the SHA-256 of one run's canonical ``sched`` stream, its
``svc`` stream and its metrics document.  The digests were captured
before the task sets moved onto one job plan and must not drift.
"""

import hashlib

import pytest

from repro.campaign.runner import run_spec
from repro.campaign.spec import ScenarioSpec
from repro.obs.bus import canonical_json
from repro.obs.sinks import ListSink
from repro.workload.families import FamilySpec, expand_family

#: Nine members, three per kernel, each kernel running all four laws.
PIN_FAMILY = FamilySpec(
    name="plan-pins", count=9, seed=3,
    kernels=("tkernel", "rtkspec1", "rtkspec2"), duration_ms=60.0,
    service_rate=0.6, cyclic_rate=0.5, rtc_rate=0.4)


def synthetic_spec(kernel, period_ms=3.7, jobs=3, duration_ms=120.0):
    return ScenarioSpec(
        name=f"syn-{kernel}-{period_ms}-{jobs}", kernel=kernel,
        workload="synthetic", duration_ms=duration_ms, period_ms=period_ms,
        seed=11, extra={"jobs": jobs})


#: Synthetic task sets: a gap T-Kernel truncates, one it truncates to
#: zero, and tasks that run no job.
SYNTHETIC_SPECS = [
    synthetic_spec(kernel) for kernel in ("tkernel", "rtkspec1", "rtkspec2")
] + [
    synthetic_spec("tkernel", period_ms=0.6, duration_ms=30.0),
    synthetic_spec("tkernel", jobs=0, duration_ms=20.0),
    synthetic_spec("rtkspec2", jobs=0, duration_ms=20.0),
]


def pinned_specs():
    return expand_family(PIN_FAMILY) + SYNTHETIC_SPECS


#: spec name -> sha256 of its sched stream, svc stream and metrics.
PINS = {
    "plan-pins/0000":
        "55afdd7bdac715a9fa6db6518d05004b47376ea5c36b6b4db64c80adc7cfa211",
    "plan-pins/0001":
        "a2b3b9990be53f9ee257e11de083db589a044d32404fedda8e853ccd7e26fc53",
    "plan-pins/0002":
        "b5ee1b43fb43bb74e83e0c20c28d36c6471f561246f97bbe1a30aa0bb6cde2e3",
    "plan-pins/0003":
        "3fc4cc53faac6add1beb628f377e40fa176b5bbbff6b8dd06aad4862c3c755f0",
    "plan-pins/0004":
        "d880a50be41977bd7a133b9c70ca2c3d148ccfc1ecd5afa0b43399856befe6f0",
    "plan-pins/0005":
        "b61d298bc2c5035550a151aa1b5055f267cbb61d6f927dbf9b609602ff08f68f",
    "plan-pins/0006":
        "e3173e3276a33a6f06983422999aa562ef2809a0d3715cbd8b1ce40ec394b3e6",
    "plan-pins/0007":
        "4c4e236fb81aab3c8a5968a8d0f94e05b0bd612d1d6f616c759b13c4c0acb6b2",
    "plan-pins/0008":
        "5344a781bbe4984858dc17379357ff7379cf301b03d74d808ae6fdbfa3c7d5e2",
    "syn-tkernel-3.7-3":
        "b1fc988d2adbdfd5e1d752e822a09a59b3272d189f4cef2565aa15eaf897883d",
    "syn-rtkspec1-3.7-3":
        "430a3bd30c643702bf73fc5df302dfffc31754c2e8c4a2c304f6200c21830038",
    "syn-rtkspec2-3.7-3":
        "a5a2c64d89a2e172050ec0f9aacaf97a0f0cce13fa2f674e48ccedc504922217",
    "syn-tkernel-0.6-3":
        "376b994c8cc2b3f7948553a264cd96ef31df5320ee2ca65c713b54d1be9f3169",
    "syn-tkernel-3.7-0":
        "aa8f57eacaefe248bb0c9f3bf912acb9a0c7edc66b6777374cf07144c21cb98e",
    "syn-rtkspec2-3.7-0":
        "82ac35475a5b93d2d878013e3013a3bf1b398f0b5c871fa8aa1ea1cc1f14df32",
}


def run_digest(spec):
    svc = ListSink(topics=("svc",))
    result = run_spec(spec, sinks=(svc,))
    data = "".join(canonical_json(event) + "\n" for event in result.events)
    data += "".join(
        canonical_json({"t_ns": event.t_ns, "kind": event.kind, **event.fields})
        + "\n" for event in svc.events)
    data += result.metrics_json()
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def test_the_pinned_family_covers_every_part_of_a_task_set():
    members = expand_family(PIN_FAMILY)
    laws = {(spec.kernel, task["law"])
            for spec in members for task in spec.extra["tasks"]}
    assert len(laws) == 12  # every law on every kernel
    services = {service for spec in members
                for task in spec.extra["tasks"]
                for service in task.get("services", ())}
    assert services == {"sem", "flag", "mbx"}
    assert any(spec.extra.get("cyclics") for spec in members)
    assert any(spec.extra.get("platform") == "rtc" for spec in members)
    assert sorted(spec.name for spec in pinned_specs()) == sorted(PINS)


@pytest.mark.parametrize("spec", pinned_specs(), ids=lambda spec: spec.name)
def test_task_set_run_matches_pin(spec):
    assert run_digest(spec) == PINS[spec.name]

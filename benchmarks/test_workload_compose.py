"""Workload-plane guard: composing a scenario must stay cheap, forever.

Composing a spec looks up its workload component; that resolution work
must remain a rounding error next to the actual scenario wiring —
otherwise family sweeps pay a per-member tax the old builders never
charged.  Three properties pinned,
each as exact work counts (Python calls per ``repro`` package under
``cProfile``), so they hold on any host:

* **Bounded resolution work.**  ``compose(spec)`` (no build) is a spec
  check and a table lookup: its calls stay inside ``repro.campaign`` and
  ``repro.workload``, at an exact count.  Building inside compose adds the simulator, kernel and task
  wiring (hundreds of ``sysc``/``core``/``rtkspec`` calls) and fails here.
* **Bounded family expansion.**  Expanding 100 members is pure seeded
  sampling plus one spec construction and check per member: an exact
  count of ``campaign``/``workload`` calls and nothing else.  Composing
  or building a member while sampling adds calls and fails here.
* **Describe is build-free.**  ``repro describe`` powers tooling loops; it
  must never construct a simulator as a side effect.
"""

import cProfile
import os
import pstats
from collections import Counter

from repro.campaign.registry import describe_scenario, get_scenario
from repro.campaign.spec import spec_hash
from repro.perf.bench import repro_calls
from repro.workload import FamilySpec, compose, expand_family

#: ``repro`` calls of one ``compose`` of ``synthetic-rtk``: ``validate``,
#: whose type checks are plain loops (campaign), and ``compose`` itself,
#: a table lookup (workload).
COMPOSE_CALLS = {"campaign": 1, "workload": 1}

#: ``repro`` calls of expanding a 100-member mixed-kernel family: per
#: member one ``ScenarioSpec`` construction and two ``derive_seed``
#: (campaign), and one ``family_member`` (workload); plus the family's own
#: check once.  Every integer draw is one call of ``family_member``'s
#: local rejection sampler ``below`` (workload): 1,850 on this family.
#: They replace 4,569 ``random.py`` frames (``choice``, ``randint``,
#: ``randrange``, ``_randbelow``, ...), which this count of ``repro``
#: calls never saw; all calls of the expansion fell 17,918 -> 11,269.
#: Members are validated by the sweep that runs them.
EXPAND_CALLS = {"campaign": 300, "workload": 1978}


def calls_by_package(fn):
    """``package → calls`` of the ``repro`` functions *fn* calls."""
    fn()  # warm-up: registries fill on first use
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    calls = Counter()
    for key, count in repro_calls(pstats.Stats(profiler).stats).items():
        calls[key.split(os.sep, 1)[0]] += count
    return result, dict(calls)


def test_compose_does_bounded_resolution_work():
    spec = get_scenario("synthetic-rtk")
    _, calls = calls_by_package(lambda: compose(spec))
    assert calls == COMPOSE_CALLS, (
        f"compose() made {calls} repro calls, budget {COMPOSE_CALLS} — "
        "resolution is doing wiring work"
    )


def test_family_expansion_is_pure_sampling():
    family = FamilySpec(name="bench", count=100, seed=5,
                        kernels=("tkernel", "rtkspec1", "rtkspec2"))
    members, calls = calls_by_package(lambda: expand_family(family))
    assert len(members) == 100
    assert len({spec_hash(spec) for spec in members}) == 100
    assert calls == EXPAND_CALLS, (
        f"expanding 100 family members made {calls} repro calls, budget "
        f"{EXPAND_CALLS} — member sampling is no longer pure arithmetic"
    )


def test_compose_and_describe_never_build_a_simulator(monkeypatch):
    import repro.sysc.kernel as kernel_module

    def forbidden(*args, **kwargs):
        raise AssertionError("compose/describe constructed a Simulator")

    monkeypatch.setattr(kernel_module.Simulator, "__init__", forbidden)
    for name in ("quickstart", "videogame", "rtk-priority", "synthetic-rtk"):
        spec = get_scenario(name)
        compose(spec)
        describe_scenario(spec)

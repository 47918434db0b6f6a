"""The named-scenario registry, built on the composable workload plane.

Every experiment of the ``examples/`` scripts is available here as a
named :class:`~repro.campaign.spec.ScenarioSpec`:

==========================  ====================================================
Scenario                    Covers
==========================  ====================================================
``quickstart``              examples/quickstart.py (producer/consumer + cyclic)
``sync-tour``               examples/sync_primitives_tour.py (all sync objects)
``videogame``               examples/videogame_cosim.py (full Fig. 5 framework)
``cosim-speed``             examples/cosim_speed_sweep.py (every Table 2 row)
``energy-profile``          examples/energy_profiling.py (Fig. 7 distribution)
``rtk-round-robin``         examples/rtkspec_scheduler_comparison.py (RTK-Spec I)
``rtk-priority``            examples/rtkspec_scheduler_comparison.py (RTK-Spec II)
``synthetic-tkernel``       seeded synthetic periodic task set on RTK-Spec TRON
``synthetic-rtk``           seeded synthetic periodic task set on RTK-Spec II
==========================  ====================================================

Construction goes through :mod:`repro.workload`: :func:`build_scenario`
composes a spec into its workload component, which wires the runnable
:class:`ScenarioBuild` onto a simulator straight from the spec's fields —
the simulator plus the callables the runner uses to collect kernel
statistics and workload-specific metrics afterwards.
:func:`describe_scenario` renders the spec's platform, kernel and workload
(``repro describe`` prints it).  The event streams are pinned by
``tests/campaign/test_golden_streams.py``.

``cosim-speed`` is Table 2: :func:`repro.analysis.speed.measure_speed_table`
runs it once per (GUI, BFM access period) row, and
``repro run cosim-speed --set bfm_access_period_ms=10 --set
gui_callback_us=800`` reproduces one row.  ``examples/cosim_speed_sweep.py``
prints the table; ``examples/energy_profiling.py`` builds
``energy-profile`` at two ``render_cycles`` budgets.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple,
)

from repro.campaign.spec import ScenarioSpec, SpecError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.workload.components import ScenarioBuild

#: name -> (description, spec factory)
_BUILTINS: Dict[str, Tuple[str, Callable[[], ScenarioSpec]]] = {}


def register_scenario(
    name: str, description: str, factory: Callable[[], ScenarioSpec]
) -> None:
    """Register a named scenario (overwrites an existing registration)."""
    _BUILTINS[name] = (description, factory)


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_BUILTINS)


def scenario_description(name: str) -> str:
    """One-line description of a registered scenario."""
    return _require(name)[0]


def get_scenario(
    name: str, overrides: Optional[Mapping[str, Any]] = None,
) -> ScenarioSpec:
    """A fresh validated spec for a registered scenario, with *overrides*
    (see :meth:`ScenarioSpec.with_overrides`) applied before its one
    validation."""
    spec = _require(name)[1]()
    if overrides:
        spec = spec.with_overrides(overrides)
    return spec.validate()


def _require(name: str) -> Tuple[str, Callable[[], ScenarioSpec]]:
    try:
        return _BUILTINS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise SpecError(f"unknown scenario {name!r} (known: {known})") from None


# ----------------------------------------------------------------------
# Construction through the workload plane
# ----------------------------------------------------------------------
# The workload plane pulls in the simulator, so it is imported at
# build/describe time, never at registry import time: listing scenarios or
# loading a spec must not pay for it (the CLI's import budget).
def build_scenario(spec: ScenarioSpec, simulator=None, telemetry=None) -> "ScenarioBuild":
    """Assemble the workload described by *spec* on *simulator*.

    The caller that wants every event of the run creates the
    :class:`~repro.sysc.kernel.Simulator`, subscribes its sinks on
    ``simulator.obs`` and only then builds: builders may already dispatch
    threads.  Without *simulator* the build gets a fresh one named after
    the spec.  Each build composes its spec once.  The ``compose`` and
    ``build`` phases are timed as separate spans on *telemetry* (a
    :class:`~repro.analytics.telemetry.TelemetryRecorder`; ``None`` is the
    null recorder).
    """
    from repro.sweep.hooks import NULL_TELEMETRY
    from repro.sysc.kernel import Simulator
    from repro.workload.components import compose

    if telemetry is None:
        telemetry = NULL_TELEMETRY
    with telemetry.span("compose", scenario=spec.name):
        workload = compose(spec)
    with telemetry.span("build", scenario=spec.name):
        if simulator is None:
            simulator = Simulator(spec.name)
        return workload.build(spec, simulator)


def describe_scenario(spec: ScenarioSpec) -> Dict[str, object]:
    """The parts of *spec* with every parameter resolved."""
    from repro.campaign.spec import spec_hash
    from repro.workload.components import compose, describe_parts

    workload = compose(spec)
    return {
        "scenario": spec.name,
        "spec": spec.to_dict(),
        "spec_hash": spec_hash(spec),
        "composition": describe_parts(spec, workload),
    }


# ----------------------------------------------------------------------
# Built-in scenario registrations
# ----------------------------------------------------------------------
register_scenario(
    "quickstart",
    "Producer/consumer over a semaphore plus a cyclic heartbeat (quickstart example)",
    lambda: ScenarioSpec(
        name="quickstart", kernel="tkernel", workload="quickstart",
        duration_ms=50.0, task_count=2, period_ms=3.0,
    ),
)
register_scenario(
    "sync-tour",
    "Every T-Kernel sync/communication object in one scenario (sync tour example)",
    lambda: ScenarioSpec(
        name="sync-tour", kernel="tkernel", workload="sync_tour",
        duration_ms=120.0, task_count=3,
    ),
)
register_scenario(
    "videogame",
    "Full Fig. 5 co-simulation: video game + i8051 BFM + GUI widgets",
    lambda: ScenarioSpec(
        name="videogame", kernel="tkernel", workload="videogame",
        duration_ms=300.0, gui_enabled=True, bfm_access_period_ms=10,
    ),
)
register_scenario(
    "cosim-speed",
    "Table 2 speed configuration: video game with the BFM access period knob",
    lambda: ScenarioSpec(
        name="cosim-speed", kernel="tkernel", workload="videogame",
        duration_ms=200.0, gui_enabled=True, bfm_access_period_ms=10,
    ),
)
register_scenario(
    "energy-profile",
    "Fig. 7 energy distribution: headless video game with a render budget knob",
    lambda: ScenarioSpec(
        name="energy-profile", kernel="tkernel", workload="energy_profile",
        duration_ms=400.0, gui_enabled=False,
        extra={"render_cycles": 400},
    ),
)
register_scenario(
    "rtk-round-robin",
    "Scheduler-comparison task set on RTK-Spec I (round robin)",
    lambda: ScenarioSpec(
        name="rtk-round-robin", kernel="rtkspec1", workload="scheduler_comparison",
        duration_ms=200.0, task_count=4, time_slice_ticks=4,
    ),
)
register_scenario(
    "rtk-priority",
    "Scheduler-comparison task set on RTK-Spec II (priority preemptive)",
    lambda: ScenarioSpec(
        name="rtk-priority", kernel="rtkspec2", workload="scheduler_comparison",
        duration_ms=200.0, task_count=4,
    ),
)
register_scenario(
    "synthetic-tkernel",
    "Seeded synthetic periodic task set on RTK-Spec TRON",
    lambda: ScenarioSpec(
        name="synthetic-tkernel", kernel="tkernel", workload="synthetic",
        duration_ms=150.0, task_count=4, period_ms=10.0, seed=7,
    ),
)
register_scenario(
    "synthetic-rtk",
    "Seeded synthetic periodic task set on RTK-Spec II",
    lambda: ScenarioSpec(
        name="synthetic-rtk", kernel="rtkspec2", workload="synthetic",
        duration_ms=150.0, task_count=6, period_ms=10.0, seed=11,
    ),
)

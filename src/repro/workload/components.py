"""Building a scenario straight from its spec.

The paper assembles every RTOS simulation model from the same parts, and
a :class:`~repro.campaign.spec.ScenarioSpec` names each of them:

* the hardware set underneath the kernel (:func:`platform_kind`): a bare
  simulator, a BFM real-time clock driving the kernel tick, or the full
  i8051 BFM (bus, intc, rtc, peripherals, budgets) of the Fig. 5
  framework;
* the kernel model — RTK-Spec TRON, I or II — with its tick and time
  slice (:func:`instantiate_kernel`);
* the :class:`Workload` — what the software does: declarative task sets
  with arrival laws, compute bursts, service-call mixes and handler
  patterns (see :mod:`repro.workload.tasks`), or one of the paper's named
  applications.

:func:`compose` validates a spec and returns its workload component, one
stateless instance per workload (:data:`repro.workload.builtins.COMPONENTS`);
``Workload.build`` assembles the runnable :class:`ScenarioBuild` from the
spec's own fields, and :func:`describe_parts` renders the three parts as a
canonical-JSON-able document (the ``repro describe`` verb).  The event
streams and metrics are pinned by ``tests/campaign/test_golden_streams.py``,
the describe documents by ``tests/campaign/test_describe_pins.py``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.campaign.spec import ScenarioSpec, SpecError, ValidatedSpec
from repro.core.simapi import SimApi
from repro.sysc.kernel import Simulator
from repro.sysc.time import SimTime

#: The module each kernel model and platform kind builds from; building
#: imports them on first use (see :func:`build_modules`).
_BUILD_MODULES = {
    "tkernel": "repro.tkernel.kernel",
    "rtkspec1": "repro.rtkspec.rtk1",
    "rtkspec2": "repro.rtkspec.rtk2",
    "rtc": "repro.bfm.rtc",
    "i8051": "repro.app.framework",
}


def platform_kind(spec: ScenarioSpec) -> str:
    """The hardware set *spec* runs on.

    The video-game workloads run on the Fig. 5 framework's ``i8051`` BFM.
    A generated workload picks ``bare`` (the default: the kernel generates
    its own tick) or ``rtc`` (a BFM real-time clock's tick signal drives
    the kernel, tkernel only) with its ``platform`` knob; every other
    workload runs bare.
    """
    if spec.workload in ("videogame", "energy_profile"):
        return "i8051"
    if spec.workload != "generated":
        return "bare"
    kind = spec.extra.get("platform", "bare")
    if kind not in ("bare", "rtc"):
        raise SpecError(
            f"generated workload platform must be 'bare' or 'rtc', got {kind!r}"
        )
    if kind == "rtc" and spec.kernel != "tkernel":
        raise SpecError(
            f"platform 'rtc' needs kernel 'tkernel', not {spec.kernel!r}"
        )
    return kind


def build_modules(spec: ScenarioSpec) -> List[str]:
    """The modules building *spec* imports: the workload components and
    the modules of its kernel model and platform."""
    return ["repro.workload.builtins"] + [
        _BUILD_MODULES[key] for key in (spec.kernel, platform_kind(spec))
        if key in _BUILD_MODULES]


def instantiate_kernel(
    spec: ScenarioSpec,
    simulator: Simulator,
    user_main: Optional[Callable] = None,
    rtc: bool = False,
):
    """Build *spec*'s kernel model on *simulator*.

    ``user_main`` is the T-Kernel initial-task body (tkernel only); with
    *rtc* a BFM real-time clock generates the T-Kernel tick.
    """
    system_tick = SimTime.ms(spec.tick_ms)
    if spec.kernel == "tkernel":
        from repro.tkernel import TKernelOS

        tick_signal = None
        if rtc:
            from repro.bfm.rtc import RealTimeClock

            tick_signal = RealTimeClock(simulator, resolution=system_tick).tick_signal
        return TKernelOS(
            simulator,
            user_main=user_main,
            system_tick=system_tick,
            tick_signal=tick_signal,
        )
    if spec.kernel == "rtkspec1":
        from repro.rtkspec.rtk1 import RTKSpec1

        return RTKSpec1(simulator, system_tick=system_tick,
                        time_slice_ticks=spec.time_slice_ticks)
    from repro.rtkspec.rtk2 import RTKSpec2

    return RTKSpec2(simulator, system_tick=system_tick)


def describe_parts(spec: ScenarioSpec, workload: "Workload") -> Dict[str, Any]:
    """*spec*'s platform, kernel and workload with every parameter
    resolved, JSON-safe."""
    kind = platform_kind(spec)
    platform: Dict[str, Any] = {"kind": kind, "tick_ms": spec.tick_ms}
    if kind == "rtc":
        platform["controllers"] = ["rtc"]
    elif kind == "i8051":
        from repro.bfm.i8051 import BFM_CONTROLLERS, BFM_PERIPHERALS

        platform.update(
            controllers=list(BFM_CONTROLLERS),
            peripherals=list(BFM_PERIPHERALS),
            bfm_access_period_ms=spec.bfm_access_period_ms,
            gui_enabled=spec.gui_enabled,
        )
    kernel: Dict[str, Any] = {"model": spec.kernel, "tick_ms": spec.tick_ms}
    if spec.kernel == "rtkspec1":
        kernel["time_slice_ticks"] = spec.time_slice_ticks
    return {
        "platform": platform,
        "kernel": kernel,
        "workload": {"name": spec.workload, **workload.resolve(spec)},
    }


class ScenarioBuild:
    """A fully-wired scenario, ready for the runner to execute."""

    __slots__ = ("simulator", "api", "kernel_statistics", "workload_metrics")

    def __init__(self, simulator: Simulator, api: SimApi,
                 kernel_statistics: Callable[[], Dict[str, Any]],
                 workload_metrics: Callable[[], Dict[str, Any]]):
        self.simulator = simulator
        self.api = api
        self.kernel_statistics = kernel_statistics
        self.workload_metrics = workload_metrics


class Workload:
    """Base class of the workload component: what the software does.

    Subclasses implement ``resolve(spec)``, the fully-resolved JSON-safe
    workload parameters behind ``repro describe``, and ``build(spec,
    simulator)``, which wires the workload, its platform and its kernel
    onto *simulator* and returns a :class:`ScenarioBuild`.  The caller owns
    the simulator, so sinks it subscribes on ``simulator.obs`` beforehand
    see every event the build emits.  The kernels a workload runs on and
    the knobs it reads are its row of :data:`repro.campaign.spec.WORKLOADS`,
    checked by ``validate``.  Components hold no state, so one instance
    serves every run.
    """


def compose(spec: ScenarioSpec) -> Workload:
    """Validate *spec* and return its workload component; a
    :class:`~repro.campaign.spec.ValidatedSpec` was validated upstream and
    is not checked again."""
    from repro.workload.builtins import COMPONENTS

    if spec.__class__ is not ValidatedSpec:
        spec.validate()
    return COMPONENTS[spec.workload]

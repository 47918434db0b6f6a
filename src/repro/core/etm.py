"""Execution time and energy models (ETM / EEM).

The paper annotates every firing sequence of a T-THREAD with an execution
time model ``ETM(S | T-THREAD) = f(CE, E_CE, cycle)`` and an execution energy
model ``EEM(S | T-THREAD) = f(E, M, E_clock)``.  In practice (section 5) the
annotations are *estimated* per basic block, OS service and BFM access.  This
module provides:

* :class:`TimingAnnotation` — one annotation: a cycle budget plus an energy
  budget,
* :class:`TimingModel` — converts cycle budgets to simulated time for a given
  CPU clock frequency (the paper's target is an 8051-class MCU),
* :class:`EnergyModel` — converts cycle budgets to energy for a given
  per-cycle energy plus per-access overheads,
* :class:`AnnotationTable` — a keyed table of annotations with sensible
  defaults, used by the kernel model (service-call costs), the application
  tasks (basic-block costs) and the BFM (per-access cycle budgets).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sysc.time import SimTime


class TimingAnnotation:
    """A single ETM/EEM annotation.

    ``cycles`` is the CPU cycle budget of the annotated block; ``energy_nj``
    is the energy consumed by the block in nanojoules.  When ``energy_nj`` is
    None the energy model derives it from the cycle count.
    """

    __slots__ = ("cycles", "energy_nj")

    def __init__(self, cycles: int, energy_nj: Optional[float] = None):
        if cycles < 0:
            raise ValueError("cycle budget cannot be negative")
        if energy_nj is not None and energy_nj < 0:
            raise ValueError("energy budget cannot be negative")
        self.cycles = cycles
        self.energy_nj = energy_nj

    def scaled(self, factor: float) -> "TimingAnnotation":
        """Return a copy scaled by *factor* (used for parameter sweeps)."""
        energy = None if self.energy_nj is None else self.energy_nj * factor
        return TimingAnnotation(int(round(self.cycles * factor)), energy)


class TimingModel:
    """Converts cycle budgets into simulated time.

    The default frequency of 12 MHz with 12 clocks per machine cycle matches
    the classic i8051 that the paper's BFM approximates; one machine cycle is
    then exactly 1 microsecond, which keeps annotated times easy to reason
    about in tests.
    """

    def __init__(self, clock_hz: float = 12_000_000.0, clocks_per_cycle: int = 12):
        if clock_hz <= 0:
            raise ValueError("clock frequency must be positive")
        if clocks_per_cycle <= 0:
            raise ValueError("clocks_per_cycle must be positive")
        self.clock_hz = clock_hz
        self.clocks_per_cycle = clocks_per_cycle

    def time_of(self, cycles: int) -> SimTime:
        """Simulated time consumed by *cycles* machine cycles."""
        if cycles < 0:
            raise ValueError("cycle count cannot be negative")
        nanoseconds = cycles * self.clocks_per_cycle * 1e9 / self.clock_hz
        return SimTime.ns(nanoseconds)

    def cycles_of(self, duration: "SimTime | int") -> int:
        """Number of whole machine cycles in *duration*."""
        duration = SimTime.coerce(duration)
        return int(duration.to_ns() * self.clock_hz / (self.clocks_per_cycle * 1e9))


class EnergyModel:
    """Converts cycle budgets into consumed energy.

    ``energy_per_cycle_nj`` models the dynamic power of the core;
    ``idle_power_mw`` models the background power drawn even when the CPU is
    idle (used by the battery widget to account for wall-clock duration).
    """

    def __init__(self, energy_per_cycle_nj: float = 2.0, idle_power_mw: float = 1.0):
        if energy_per_cycle_nj < 0 or idle_power_mw < 0:
            raise ValueError("energy parameters cannot be negative")
        self.energy_per_cycle_nj = energy_per_cycle_nj
        self.idle_power_mw = idle_power_mw

    def energy_of(self, annotation: TimingAnnotation) -> float:
        """Energy (nJ) consumed by executing *annotation*."""
        if annotation.energy_nj is not None:
            return annotation.energy_nj
        return annotation.cycles * self.energy_per_cycle_nj

    def idle_energy(self, duration: "SimTime | int") -> float:
        """Energy (nJ) drawn by the idle platform over *duration*."""
        duration = SimTime.coerce(duration)
        # idle_power_mw [mJ/s] * seconds -> mJ -> nJ
        return self.idle_power_mw * duration.to_sec() * 1e6


#: Default cycle/energy budgets used when a key has no explicit annotation.
DEFAULT_ANNOTATION = TimingAnnotation(cycles=50)


class AnnotationTable:
    """A keyed table of :class:`TimingAnnotation` entries.

    Keys are free-form strings; by convention the kernel uses ``svc:<name>``
    for service calls, the application uses ``task:<task>:<block>`` for basic
    blocks and the BFM uses ``bfm:<call>`` for bus accesses.
    """

    def __init__(
        self,
        entries: Optional[Dict[str, TimingAnnotation]] = None,
        default: TimingAnnotation = DEFAULT_ANNOTATION,
    ):
        self._entries: Dict[str, TimingAnnotation] = dict(entries or {})
        self.default = default
        self.lookups: Dict[str, int] = {}
        #: Bumped by every :meth:`annotate`: memos of resolved budgets
        #: (``SimApi.sim_wait_key``) hold only while it is unchanged.
        self.revision = 0

    def annotate(self, key: str, cycles: int, energy_nj: Optional[float] = None) -> None:
        """Set the annotation of *key*."""
        self._entries[key] = TimingAnnotation(cycles, energy_nj)
        self.revision += 1

    def lookup(self, key: str) -> TimingAnnotation:
        """Return the annotation of *key* (the default if unknown)."""
        self.lookups[key] = self.lookups.get(key, 0) + 1
        return self._entries.get(key, self.default)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


def default_service_call_annotations() -> AnnotationTable:
    """Estimated cycle budgets for T-Kernel/OS service calls.

    The paper estimates its annotations rather than calibrating them
    (section 5, last paragraph); these values are in the range reported for
    small ITRON kernels on 8-bit targets and give service calls a visible but
    small cost relative to the 1 ms system tick.
    """
    table = AnnotationTable()
    budgets = {
        "svc:tk_cre_tsk": 220,
        "svc:tk_sta_tsk": 180,
        "svc:tk_ext_tsk": 160,
        "svc:tk_ter_tsk": 200,
        "svc:tk_slp_tsk": 140,
        "svc:tk_wup_tsk": 120,
        "svc:tk_dly_tsk": 140,
        "svc:tk_chg_pri": 110,
        "svc:tk_rel_wai": 130,
        "svc:tk_cre_sem": 150,
        "svc:tk_sig_sem": 100,
        "svc:tk_wai_sem": 120,
        "svc:tk_cre_flg": 150,
        "svc:tk_set_flg": 110,
        "svc:tk_clr_flg": 90,
        "svc:tk_wai_flg": 130,
        "svc:tk_cre_mtx": 150,
        "svc:tk_loc_mtx": 130,
        "svc:tk_unl_mtx": 120,
        "svc:tk_cre_mbx": 150,
        "svc:tk_snd_mbx": 110,
        "svc:tk_rcv_mbx": 120,
        "svc:tk_cre_mbf": 160,
        "svc:tk_snd_mbf": 140,
        "svc:tk_rcv_mbf": 140,
        "svc:tk_cre_mpf": 170,
        "svc:tk_get_mpf": 120,
        "svc:tk_rel_mpf": 110,
        "svc:tk_cre_mpl": 180,
        "svc:tk_get_mpl": 140,
        "svc:tk_rel_mpl": 130,
        "svc:tk_cre_cyc": 160,
        "svc:tk_sta_cyc": 100,
        "svc:tk_stp_cyc": 100,
        "svc:tk_cre_alm": 160,
        "svc:tk_sta_alm": 100,
        "svc:tk_stp_alm": 100,
        "svc:tk_set_tim": 90,
        "svc:tk_get_tim": 80,
        "svc:tk_ref_tsk": 90,
        "svc:tk_ref_sys": 90,
        "svc:timer_handler": 80,
        "svc:dispatch": 150,
        "svc:interrupt_entry": 120,
        "svc:interrupt_return": 100,
        "svc:boot": 400,
    }
    for key, cycles in budgets.items():
        table.annotate(key, cycles)
    return table

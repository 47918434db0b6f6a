"""The paper's primary contribution: T-THREAD processes and the SIM_API library.

The modules here re-create, on top of :mod:`repro.sysc`, the RTOS modeling
constructs of the DATE'05 paper:

* :mod:`repro.core.events` — the kernel-specific run events
  ``{Es, Ec, Ex, Ei, Ew}`` and execution contexts of Fig. 2,
* :mod:`repro.core.etm` — execution-time (ETM) and execution-energy (EEM)
  models and annotation tables,
* :mod:`repro.core.petri` — the synchronized-Petri-net bookkeeping (token,
  transitions, characteristic vectors, CET/CEE),
* :mod:`repro.core.tthread` — the T-THREAD controllable process model,
* :mod:`repro.core.hashtb` / :mod:`repro.core.stack` — ``SIM_HashTB`` and
  ``SIM_Stack``,
* :mod:`repro.core.simapi` — the SIM_API library itself (Table 1),
* :mod:`repro.core.gantt` — the time/energy Gantt chart debugging output,
* :mod:`repro.core.scheduler` — the external-scheduler interface plus the
  round-robin and priority-preemptive reference schedulers used by
  RTK-Spec I and II.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".events": ("ExecutionContext", "RunEvent", "ThreadKind", "ThreadState"),
    ".etm": ("AnnotationTable", "EnergyModel", "TimingAnnotation", "TimingModel"),
    ".petri": ("PetriToken", "Transition"),
    ".tthread": ("TThread",),
    ".hashtb": ("SimHashTB",),
    ".stack": ("SimStack",),
    ".simapi": ("SimApi", "SimApiError"),
    ".gantt": ("GanttChart", "GanttSegment"),
    ".scheduler": ("RoundRobinScheduler", "PriorityScheduler"),
})

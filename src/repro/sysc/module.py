"""SC_MODULE-style grouping of processes and signals.

:class:`SCModule` is a thin organizational layer: hardware and kernel models
subclass it, create their signals/events in ``__init__`` and register their
behaviour with :meth:`SCModule.sc_thread`.  It matches the structural role of
``SC_MODULE`` in the paper's figures (the kernel central module, the BFM and
the application tasks module are each one module).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from repro.sysc.event import SCEvent
from repro.sysc.kernel import Simulator
from repro.sysc.process import ProcessHandle


class SCModule:
    """Base class for structural modules."""

    def __init__(self, name: str, simulator: Simulator):
        self.name = name
        self.simulator = simulator
        self._threads: List[ProcessHandle] = []

    # -- construction helpers ------------------------------------------------
    def sc_thread(
        self,
        name: str,
        factory: Callable[[], object],
        sensitivity: "Optional[Iterable[SCEvent] | SCEvent]" = None,
        dont_initialize: bool = False,
    ) -> ProcessHandle:
        """Register an SC_THREAD belonging to this module."""
        handle = self.simulator.register_thread(
            f"{self.name}.{name}",
            factory,
            sensitivity=sensitivity,
            dont_initialize=dont_initialize,
        )
        self._threads.append(handle)
        return handle

    def create_event(self, name: str) -> SCEvent:
        """Create an event namespaced under this module."""
        return self.simulator.create_event(f"{self.name}.{name}")

    # -- introspection ---------------------------------------------------------
    @property
    def threads(self) -> List[ProcessHandle]:
        """Processes registered by this module."""
        return list(self._threads)

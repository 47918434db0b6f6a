"""The Driver Model: handshake functions for BFM calls (Fig. 4).

Every hardware access from the software side goes through :class:`BusDriver`.
A call charges its cycle/energy budget in the ``BFM_ACCESS`` execution
context (so the Fig. 6 trace attributes it correctly) and drives the address,
data and strobe signals so a waveform viewer (:class:`repro.sysc.trace.TraceFile`)
can probe the transaction, as in the paper's Fig. 4.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.bfm.budgets import BFMBudgets
from repro.core.etm import TimingAnnotation
from repro.core.events import ExecutionContext
from repro.core.simapi import SimApi
from repro.sysc.signal import Signal


class BusDriver:
    """Handshake functions shared by all BFM controllers."""

    def __init__(self, api: SimApi, name: str = "bus"):
        self.api = api
        #: The cycle budgets every controller on this bus reads.
        self.budgets = BFMBudgets()
        self.name = name
        simulator = api.simulator
        self.address_bus: Signal[int] = Signal(f"{name}.address", 0, simulator)
        self.data_bus: Signal[int] = Signal(f"{name}.data", 0, simulator)
        self.read_strobe: Signal[bool] = Signal(f"{name}.rd", False, simulator)
        self.write_strobe: Signal[bool] = Signal(f"{name}.wr", False, simulator)
        self.access_count = 0
        self.read_count = 0
        self.write_count = 0
        #: Hooks called after every completed access: fn(kind, address, value).
        self.access_hooks: List[Callable[[str, int, int], None]] = []
        # Completed transactions publish on the bus's `bfm` topic.
        self._obs_bfm = api.obs.topic("bfm")

    # ------------------------------------------------------------------
    # Handshake functions (generators: call with ``yield from``)
    # ------------------------------------------------------------------
    def bus_read(self, address: int, value_provider: Callable[[], int],
                 cycles: Optional[int] = None, label: str = "bfm:bus_read"):
        """Perform a read transaction and return the value."""
        cycles = cycles if cycles is not None else self.budgets.bus_read
        self.address_bus.write(address)
        self.read_strobe.write(True)
        yield from self._charge(cycles, label)
        value = value_provider()
        self.data_bus.write(value)
        self.read_strobe.write(False)
        self.access_count += 1
        self.read_count += 1
        self._notify_hooks("read", address, value)
        return value

    def bus_write(self, address: int, value: int,
                  apply: Callable[[int], None],
                  cycles: Optional[int] = None, label: str = "bfm:bus_write"):
        """Perform a write transaction."""
        cycles = cycles if cycles is not None else self.budgets.bus_write
        self.address_bus.write(address)
        self.data_bus.write(value)
        self.write_strobe.write(True)
        yield from self._charge(cycles, label)
        apply(value)
        self.write_strobe.write(False)
        self.access_count += 1
        self.write_count += 1
        self._notify_hooks("write", address, value)

    def _charge(self, cycles: int, label: str):
        """Charge the access cost in the BFM_ACCESS context."""
        energy = (
            self.api.energy_model.energy_of(TimingAnnotation(cycles))
            + self.budgets.access_energy_nj
        )
        yield from self.api.sim_wait(
            cycles=cycles,
            energy_nj=energy,
            context=ExecutionContext.BFM_ACCESS,
            label=label,
        )

    def _notify_hooks(self, kind: str, address: int, value: int) -> None:
        topic = self._obs_bfm
        if topic.enabled:
            topic.emit(
                kind, self.api.simulator.now.nanoseconds,
                driver=self.name, address=address, value=value,
            )
        for hook in self.access_hooks:
            hook(kind, address, value)

    def add_access_hook(self, hook: Callable[[str, int, int], None]) -> None:
        """Register a hook called after every completed bus access."""
        self.access_hooks.append(hook)

    def signals(self) -> List[Signal]:
        """The probe-able bus signals (for waveform tracing)."""
        return [self.address_bus, self.data_bus, self.read_strobe, self.write_strobe]

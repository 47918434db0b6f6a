"""External interrupt management (tk_def_int, interrupt dispatch helpers).

``tk_def_int(intno, handler_fn)`` registers an interrupt service routine for
an interrupt number.  The kernel's *Interrupt Dispatch* process (Fig. 3)
identifies external interrupts raised by the interrupt controller and calls
the SIM_API library to notify the dedicated handler T-THREAD, which then runs
in the task-independent context with full nesting support (SIM_Stack).
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from repro.core.events import ThreadKind
from repro.core.tthread import TThread
from repro.tkernel.cyclic import HandlerFunction, handler_body
from repro.tkernel.errors import E_NOEXS, E_OK, E_PAR
from repro.tkernel.objects import KernelObject, service

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tkernel.kernel import TKernelOS


class InterruptHandler(KernelObject):
    """One registered interrupt service routine."""

    object_type = "interrupt_handler"

    def __init__(self, intno: int, name: str, handler_fn: HandlerFunction, exinf=None):
        super().__init__(intno, name, 0, exinf)
        self.intno = intno
        self.handler_fn = handler_fn
        self.thread: Optional[TThread] = None
        self.activation_count = 0
        self.enabled = True


class InterruptManager:
    """Implements interrupt definition and dispatch."""

    def __init__(self, kernel: "TKernelOS"):
        self.kernel = kernel
        self._handlers: Dict[int, InterruptHandler] = {}
        self.spurious_count = 0
        self._obs_irq = kernel.api.obs.topic("irq")

    def all_handlers(self) -> List[InterruptHandler]:
        """All registered handlers ordered by interrupt number."""
        return [self._handlers[n] for n in sorted(self._handlers)]

    # ------------------------------------------------------------------
    # Service calls
    # ------------------------------------------------------------------
    @service
    def tk_def_int(self, intno: int, handler_fn: Optional[HandlerFunction],
                   name: str = "", exinf=None):
        """Define (or, with ``handler_fn=None``, undefine) an ISR for *intno*."""
        if intno < 0:
            return E_PAR
        if handler_fn is None:
            existing = self._handlers.pop(intno, None)
            if existing is None:
                return E_NOEXS
            if existing.thread is not None:
                self.kernel.api.remove_thread(existing.thread)
            return E_OK
        handler = InterruptHandler(intno, name or f"isr{intno}", handler_fn, exinf)
        handler.thread = self.kernel.api.create_thread(
            handler.name,
            handler_body(handler),
            priority=0,
            kind=ThreadKind.INTERRUPT_HANDLER,
        )
        self._handlers[intno] = handler
        return E_OK

    @service
    def tk_ena_int(self, intno: int):
        """Enable an interrupt line."""
        handler = self._handlers.get(intno)
        if handler is None:
            return E_NOEXS
        handler.enabled = True
        return E_OK

    @service
    def tk_dis_int(self, intno: int):
        """Disable an interrupt line (raised interrupts are dropped)."""
        handler = self._handlers.get(intno)
        if handler is None:
            return E_NOEXS
        handler.enabled = False
        return E_OK

    # ------------------------------------------------------------------
    # Dispatch (called by the kernel's Interrupt Dispatch process)
    # ------------------------------------------------------------------
    def dispatch(self, intno: int) -> bool:
        """Notify the ISR for *intno*; returns whether one was registered."""
        handler = self._handlers.get(intno)
        topic = self._obs_irq
        if handler is None or not handler.enabled:
            self.spurious_count += 1
            if topic.enabled:
                topic.emit(
                    "spurious", self.kernel.simulator.now.nanoseconds, intno=intno
                )
            return False
        handler.activation_count += 1
        assert handler.thread is not None
        if topic.enabled:
            topic.emit(
                "dispatch", self.kernel.simulator.now.nanoseconds,
                intno=intno, handler=handler.name,
            )
        self.kernel.api.notify_interrupt(handler.thread)
        return True

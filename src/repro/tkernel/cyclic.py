"""Cyclic handlers (tk_cre_cyc, tk_sta_cyc, tk_stp_cyc, tk_ref_cyc).

A cyclic handler is a time-event handler activated periodically by the timer
handler.  Each activation runs as a handler T-THREAD in the task-independent
context (on top of SIM_Stack), exactly like the paper's H1 handler in the
video-game case study.  What cyclic and alarm handlers share — the handler
object, its T-THREAD and the stop and delete steps — is
:class:`TimeEventHandler` and :class:`TimeEventHandlerManager`.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, TYPE_CHECKING

from repro.core.events import ThreadKind
from repro.core.tthread import TThread
from repro.tkernel.errors import E_OK, E_PAR
from repro.tkernel.objects import MAX_HANDLERS, KernelObject, ObjectTable, service
from repro.tkernel.timemgmt import TimerHandle
from repro.tkernel.types import TA_STA

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tkernel.kernel import TKernelOS

#: Signature of a time-event handler function.
HandlerFunction = Callable[[Any], Generator[object, object, None]]


def handler_body(handler) -> Callable[[], Generator[object, object, None]]:
    """The T-THREAD body of a handler object: its function on its exinf."""
    def body():
        yield from handler.handler_fn(handler.exinf)

    return body


class TimeEventHandler(KernelObject):
    """A handler object that its timer activates while it is ``active``."""

    def __init__(self, object_id: int, name: str, attributes: int,
                 handler_fn: HandlerFunction, exinf=None, active: bool = False):
        super().__init__(object_id, name, attributes, exinf)
        self.handler_fn = handler_fn
        self.active = active
        self.thread: Optional[TThread] = None
        self.activation_count = 0
        self.timer_handle: Optional[TimerHandle] = None


class TimeEventHandlerManager:
    """A table of time-event handlers, each run on its own handler T-THREAD."""

    #: Kind of the handler T-THREADs this manager creates.
    thread_kind: ThreadKind

    def __init__(self, kernel: "TKernelOS"):
        self.kernel = kernel
        self.table: ObjectTable[TimeEventHandler] = ObjectTable(MAX_HANDLERS)

    def _add(self, factory: Callable[[int], TimeEventHandler]) -> TimeEventHandler:
        """Store ``factory(id)`` and give it its T-THREAD (or refuse, E_LIMIT)."""
        handler = self.table.add(factory)
        handler.thread = self.kernel.api.create_thread(
            handler.name, handler_body(handler), priority=0, kind=self.thread_kind,
        )
        return handler

    def _stop(self, handler: TimeEventHandler) -> None:
        handler.active = False
        self.kernel.time.cancel(handler.timer_handle)

    def _delete(self, handler: TimeEventHandler) -> None:
        self._stop(handler)
        if handler.thread is not None:
            self.kernel.api.remove_thread(handler.thread)
        self.table.delete(handler.object_id)


class CyclicHandler(TimeEventHandler):
    """One cyclic handler object."""

    object_type = "cyclic_handler"

    def __init__(self, object_id: int, name: str, attributes: int,
                 handler_fn: HandlerFunction, cyctim: int, cycphs: int, exinf=None):
        super().__init__(object_id, name, attributes, handler_fn, exinf,
                         active=bool(attributes & TA_STA))
        self.cycle_time_ms = cyctim
        self.phase_ms = cycphs


class CyclicHandlerManager(TimeEventHandlerManager):
    """Implements the cyclic-handler service calls."""

    thread_kind = ThreadKind.CYCLIC_HANDLER

    # ------------------------------------------------------------------
    # Service calls
    # ------------------------------------------------------------------
    @service
    def tk_cre_cyc(self, handler_fn: HandlerFunction, cyctim: int,
                   cycphs: int = 0, name: str = "", cycatr: int = 0, exinf=None):
        """Create a cyclic handler; returns its id or an error code."""
        if cyctim <= 0 or cycphs < 0:
            return E_PAR
        cyc = self._add(
            lambda oid: CyclicHandler(
                oid, name or f"cyc{oid}", cycatr, handler_fn, cyctim, cycphs, exinf
            )
        )
        if cyc.active:
            self._schedule_next(cyc, initial=True)
        return cyc.object_id

    def _schedule_next(self, cyc: CyclicHandler, initial: bool = False) -> None:
        delay_ms = cyc.phase_ms if initial and cyc.phase_ms else cyc.cycle_time_ms
        now = self.kernel.simulator.now
        cyc.timer_handle = self.kernel.time.after_ms(
            now, delay_ms, lambda: self._activate(cyc), label=f"cyc{cyc.object_id}"
        )

    def _activate(self, cyc: CyclicHandler) -> None:
        if cyc.object_id not in self.table or not cyc.active:
            return
        cyc.activation_count += 1
        assert cyc.thread is not None
        self.kernel.api.activate_handler(cyc.thread)
        self._schedule_next(cyc)

    @service
    def tk_sta_cyc(self, cycid: int):
        """Start (activate) a cyclic handler."""
        cyc = self.table.require(cycid)
        if not cyc.active:
            cyc.active = True
            self._schedule_next(cyc, initial=True)
        return E_OK

    @service
    def tk_stp_cyc(self, cycid: int):
        """Stop a cyclic handler."""
        self._stop(self.table.require(cycid))
        return E_OK

    @service
    def tk_del_cyc(self, cycid: int):
        """Delete a cyclic handler."""
        self._delete(self.table.require(cycid))
        return E_OK

    @service
    def tk_ref_cyc(self, cycid: int):
        """Reference a cyclic handler's state."""
        cyc = self.table.require(cycid)
        next_due = None
        if cyc.timer_handle is not None and not cyc.timer_handle.fired \
                and not cyc.timer_handle.cancelled:
            next_due = (cyc.timer_handle.due - self.kernel.simulator.now).to_ms()
        return {
            "cycid": cyc.object_id,
            "name": cyc.name,
            "exinf": cyc.exinf,
            "cycstat": int(cyc.active),
            "cyctim": cyc.cycle_time_ms,
            "lfttim": next_due,
            "activations": cyc.activation_count,
        }

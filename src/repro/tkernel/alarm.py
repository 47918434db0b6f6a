"""Alarm handlers (tk_cre_alm, tk_sta_alm, tk_stp_alm, tk_ref_alm).

An alarm handler is a one-shot time-event handler: ``tk_sta_alm(almid, t)``
arms it to run once *t* milliseconds later.  Like cyclic handlers it runs in
the task-independent context (the paper's H2 handler).
"""

from __future__ import annotations

from repro.core.events import ThreadKind
from repro.tkernel.cyclic import HandlerFunction, TimeEventHandler, TimeEventHandlerManager
from repro.tkernel.errors import E_OK, E_PAR
from repro.tkernel.objects import service


class AlarmHandler(TimeEventHandler):
    """One alarm handler object; ``active`` means armed."""

    object_type = "alarm_handler"


class AlarmHandlerManager(TimeEventHandlerManager):
    """Implements the alarm-handler service calls."""

    thread_kind = ThreadKind.ALARM_HANDLER

    # ------------------------------------------------------------------
    # Service calls
    # ------------------------------------------------------------------
    @service
    def tk_cre_alm(self, handler_fn: HandlerFunction, name: str = "",
                   almatr: int = 0, exinf=None):
        """Create an alarm handler; returns its id or an error code."""
        return self._add(
            lambda oid: AlarmHandler(oid, name or f"alm{oid}", almatr, handler_fn, exinf)
        ).object_id

    @service
    def tk_sta_alm(self, almid: int, almtim: int):
        """Arm the alarm to fire once after *almtim* milliseconds."""
        alarm = self.table.require(almid)
        if almtim < 0:
            return E_PAR
        self.kernel.time.cancel(alarm.timer_handle)
        alarm.active = True
        alarm.timer_handle = self.kernel.time.after_ms(
            self.kernel.simulator.now,
            almtim,
            lambda: self._activate(alarm),
            label=f"alm{almid}",
        )
        return E_OK

    def _activate(self, alarm: AlarmHandler) -> None:
        if alarm.object_id not in self.table or not alarm.active:
            return
        alarm.active = False
        alarm.activation_count += 1
        assert alarm.thread is not None
        self.kernel.api.activate_handler(alarm.thread)

    @service
    def tk_stp_alm(self, almid: int):
        """Disarm the alarm."""
        self._stop(self.table.require(almid))
        return E_OK

    @service
    def tk_del_alm(self, almid: int):
        """Delete an alarm handler."""
        self._delete(self.table.require(almid))
        return E_OK

    @service
    def tk_ref_alm(self, almid: int):
        """Reference an alarm handler's state."""
        alarm = self.table.require(almid)
        left = None
        if alarm.active and alarm.timer_handle is not None:
            left = (alarm.timer_handle.due - self.kernel.simulator.now).to_ms()
        return {
            "almid": alarm.object_id,
            "name": alarm.name,
            "exinf": alarm.exinf,
            "almstat": int(alarm.active),
            "lfttim": left,
            "activations": alarm.activation_count,
        }

"""Event flags (tk_cre_flg, tk_set_flg, tk_clr_flg, tk_wai_flg, ...)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.tkernel.errors import E_OBJ, E_OK, E_PAR
from repro.tkernel.objects import KernelObject, ObjectTable, WaitQueue, service
from repro.tkernel.types import (
    TA_WMUL,
    TMO_FEVR,
    TTW_FLG,
    TWF_BITCLR,
    TWF_CLR,
    TWF_ORW,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tkernel.kernel import TKernelOS


def pattern_matches(flag_pattern: int, wait_pattern: int, mode: int) -> bool:
    """Whether *flag_pattern* satisfies a wait for *wait_pattern* under *mode*."""
    if mode & TWF_ORW:
        return bool(flag_pattern & wait_pattern)
    return (flag_pattern & wait_pattern) == wait_pattern


class EventFlag(KernelObject):
    """A bit-pattern event flag."""

    object_type = "flag"

    def __init__(self, object_id: int, name: str, attributes: int,
                 iflgptn: int = 0, exinf=None):
        super().__init__(object_id, name, attributes, exinf)
        self.pattern = iflgptn
        self.wait_queue = WaitQueue(attributes)

    @property
    def allows_multiple_waiters(self) -> bool:
        """Whether the TA_WMUL attribute is set."""
        return bool(self.attributes & TA_WMUL)


class EventFlagManager:
    """Implements the event-flag service calls."""

    def __init__(self, kernel: "TKernelOS"):
        self.kernel = kernel
        self.table: ObjectTable[EventFlag] = ObjectTable()

    # ------------------------------------------------------------------
    # Service calls
    # ------------------------------------------------------------------
    @service
    def tk_cre_flg(self, iflgptn: int = 0, name: str = "", flgatr: int = 0, exinf=None):
        """Create an event flag; returns its id or an error code."""
        if iflgptn < 0:
            return E_PAR
        return self.table.add(
            lambda oid: EventFlag(oid, name or f"flg{oid}", flgatr, iflgptn, exinf)
        ).object_id

    @service
    def tk_del_flg(self, flgid: int):
        """Delete an event flag; waiting tasks are released with E_DLT."""
        flag = self.table.require(flgid)
        self.kernel._release_all_waiters(flag.wait_queue)
        self.table.delete(flgid)
        return E_OK

    @service
    def tk_set_flg(self, flgid: int, setptn: int):
        """OR *setptn* into the flag and release every satisfied waiter."""
        flag = self.table.require(flgid)
        if setptn < 0:
            return E_PAR
        flag.pattern |= setptn
        self._serve_waiters(flag)
        return E_OK

    def _serve_waiters(self, flag: EventFlag) -> None:
        for entry in flag.wait_queue.entries():
            waiptn = entry.data["waiptn"]
            wfmode = entry.data["wfmode"]
            if not pattern_matches(flag.pattern, waiptn, wfmode):
                continue
            released_pattern = flag.pattern
            flag.wait_queue.remove(entry)
            self.kernel._release_wait(entry, E_OK, result=released_pattern)
            if wfmode & TWF_CLR:
                flag.pattern = 0
            elif wfmode & TWF_BITCLR:
                flag.pattern &= ~waiptn
            if wfmode & (TWF_CLR | TWF_BITCLR):
                # Clearing may invalidate later waiters' conditions; re-check
                # from the (already captured) list on the next iterations.
                continue

    @service
    def tk_clr_flg(self, flgid: int, clrptn: int):
        """AND the flag pattern with *clrptn* (clears the bits not in clrptn)."""
        self.table.require(flgid).pattern &= clrptn
        return E_OK

    @service
    def tk_wai_flg(self, flgid: int, waiptn: int, wfmode: int = TWF_ORW,
                   tmout: int = TMO_FEVR):
        """Wait until the flag pattern satisfies *waiptn* under *wfmode*.

        Returns the flag pattern at release time (non-negative) or an error.
        """
        flag = self.table.require(flgid)
        if waiptn <= 0:
            return E_PAR
        if flag.wait_queue and not flag.allows_multiple_waiters:
            return E_OBJ
        if pattern_matches(flag.pattern, waiptn, wfmode):
            released_pattern = flag.pattern
            if wfmode & TWF_CLR:
                flag.pattern = 0
            elif wfmode & TWF_BITCLR:
                flag.pattern &= ~waiptn
            return released_pattern
        ercd = yield from self.kernel._wait_here(
            factor=TTW_FLG,
            object_id=flgid,
            tmout=tmout,
            queue=flag.wait_queue,
            data={"waiptn": waiptn, "wfmode": wfmode},
        )
        if ercd != E_OK:
            return ercd
        released_pattern = self.kernel.tasks.invoking_tcb().last_wait_result
        return released_pattern if released_pattern is not None else E_OK

    @service
    def tk_ref_flg(self, flgid: int):
        """Reference an event flag's state."""
        flag = self.table.require(flgid)
        return {
            "flgid": flag.object_id,
            "name": flag.name,
            "exinf": flag.exinf,
            "flgptn": flag.pattern,
            "wtsk": flag.wait_queue.waiting_task_ids(),
        }

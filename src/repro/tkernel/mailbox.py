"""Mailboxes (tk_cre_mbx, tk_snd_mbx, tk_rcv_mbx, ...).

A mailbox passes *message objects* by reference.  Messages may carry a
priority; with the ``TA_MPRI`` attribute the message queue is ordered by that
priority (lower value first), otherwise FIFO.
"""

from __future__ import annotations

from typing import Any, List, TYPE_CHECKING

from repro.tkernel.errors import E_OK, E_PAR
from repro.tkernel.objects import KernelObject, ObjectTable, WaitQueue, service
from repro.tkernel.types import TA_MPRI, TMO_FEVR, TTW_MBX

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tkernel.kernel import TKernelOS


class Message:
    """One mailbox message (payload passed by reference, as in T-Kernel)."""

    __slots__ = ("payload", "priority")

    def __init__(self, payload: Any, priority: int = 0):
        self.payload = payload
        self.priority = priority


class Mailbox(KernelObject):
    """A mailbox holding an unbounded queue of messages."""

    object_type = "mailbox"

    def __init__(self, object_id: int, name: str, attributes: int, exinf=None):
        super().__init__(object_id, name, attributes, exinf)
        self.messages: List[Message] = []
        self.wait_queue = WaitQueue(attributes)
        self.sent_count = 0
        self.received_count = 0

    @property
    def priority_ordered(self) -> bool:
        """Whether messages are ordered by message priority (TA_MPRI)."""
        return bool(self.attributes & TA_MPRI)

    def push(self, message: Message) -> None:
        """Insert a message according to the ordering attribute."""
        if not self.priority_ordered:
            self.messages.append(message)
            return
        for index, existing in enumerate(self.messages):
            if existing.priority > message.priority:
                self.messages.insert(index, message)
                return
        self.messages.append(message)


class MailboxManager:
    """Implements the mailbox service calls."""

    def __init__(self, kernel: "TKernelOS"):
        self.kernel = kernel
        self.table: ObjectTable[Mailbox] = ObjectTable()

    # ------------------------------------------------------------------
    # Service calls
    # ------------------------------------------------------------------
    @service
    def tk_cre_mbx(self, name: str = "", mbxatr: int = 0, exinf=None):
        """Create a mailbox; returns its id or an error code."""
        return self.table.add(
            lambda oid: Mailbox(oid, name or f"mbx{oid}", mbxatr, exinf)
        ).object_id

    @service
    def tk_del_mbx(self, mbxid: int):
        """Delete a mailbox; waiting tasks are released with E_DLT."""
        mailbox = self.table.require(mbxid)
        self.kernel._release_all_waiters(mailbox.wait_queue)
        self.table.delete(mbxid)
        return E_OK

    @service
    def tk_snd_mbx(self, mbxid: int, payload: Any, msgpri: int = 0):
        """Send a message (never blocks)."""
        mailbox = self.table.require(mbxid)
        if msgpri < 0:
            return E_PAR
        message = Message(payload, msgpri)
        mailbox.sent_count += 1
        waiter = mailbox.wait_queue.pop()
        if waiter is not None:
            mailbox.received_count += 1
            self.kernel._release_wait(waiter, E_OK, result=message.payload)
            return E_OK
        mailbox.push(message)
        return E_OK

    @service(padding=(None,))
    def tk_rcv_mbx(self, mbxid: int, tmout: int = TMO_FEVR):
        """Receive a message; returns ``(E_OK, payload)`` or ``(error, None)``."""
        mailbox = self.table.require(mbxid)
        if mailbox.messages:
            message = mailbox.messages.pop(0)
            mailbox.received_count += 1
            return E_OK, message.payload
        ercd = yield from self.kernel._wait_here(
            factor=TTW_MBX,
            object_id=mbxid,
            tmout=tmout,
            queue=mailbox.wait_queue,
        )
        if ercd != E_OK:
            return ercd, None
        return E_OK, self.kernel.tasks.invoking_tcb().last_wait_result

    @service
    def tk_ref_mbx(self, mbxid: int):
        """Reference a mailbox's state."""
        mailbox = self.table.require(mbxid)
        return {
            "mbxid": mailbox.object_id,
            "name": mailbox.name,
            "exinf": mailbox.exinf,
            "msgcnt": len(mailbox.messages),
            "wtsk": mailbox.wait_queue.waiting_task_ids(),
            "sent": mailbox.sent_count,
            "received": mailbox.received_count,
        }

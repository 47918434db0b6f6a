"""Message buffers (tk_cre_mbf, tk_snd_mbf, tk_rcv_mbf, ...).

Unlike mailboxes, a message buffer *copies* messages into bounded storage,
so senders can block when the buffer is full.  Message sizes are modelled as
byte counts supplied by the caller (the payload itself is any Python object).
"""

from __future__ import annotations

from typing import Any, List, TYPE_CHECKING

from repro.tkernel.errors import E_OK, E_PAR
from repro.tkernel.objects import KernelObject, ObjectTable, WaitQueue, service
from repro.tkernel.types import TMO_FEVR, TTW_RMBF, TTW_SMBF

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tkernel.kernel import TKernelOS


class BufferedMessage:
    """One message stored in a message buffer."""

    __slots__ = ("payload", "size")

    def __init__(self, payload: Any, size: int):
        self.payload = payload
        self.size = size


class MessageBuffer(KernelObject):
    """A bounded message buffer with blocking send and receive."""

    object_type = "message_buffer"

    def __init__(self, object_id: int, name: str, attributes: int,
                 bufsz: int, maxmsz: int, exinf=None):
        super().__init__(object_id, name, attributes, exinf)
        self.buffer_size = bufsz
        self.max_message_size = maxmsz
        self.used_bytes = 0
        self.messages: List[BufferedMessage] = []
        self.send_queue = WaitQueue(attributes)
        self.receive_queue = WaitQueue(attributes)

    def free_bytes(self) -> int:
        """Bytes still available in the buffer."""
        return self.buffer_size - self.used_bytes


class MessageBufferManager:
    """Implements the message-buffer service calls."""

    def __init__(self, kernel: "TKernelOS"):
        self.kernel = kernel
        self.table: ObjectTable[MessageBuffer] = ObjectTable()

    # ------------------------------------------------------------------
    # Service calls
    # ------------------------------------------------------------------
    @service
    def tk_cre_mbf(self, bufsz: int = 1024, maxmsz: int = 64, name: str = "",
                   mbfatr: int = 0, exinf=None):
        """Create a message buffer; returns its id or an error code."""
        if bufsz <= 0 or maxmsz <= 0 or maxmsz > bufsz:
            return E_PAR
        return self.table.add(
            lambda oid: MessageBuffer(oid, name or f"mbf{oid}", mbfatr, bufsz, maxmsz, exinf)
        ).object_id

    @service
    def tk_del_mbf(self, mbfid: int):
        """Delete a message buffer; waiting tasks are released with E_DLT."""
        buffer = self.table.require(mbfid)
        self.kernel._release_all_waiters(buffer.send_queue)
        self.kernel._release_all_waiters(buffer.receive_queue)
        self.table.delete(mbfid)
        return E_OK

    @service
    def tk_snd_mbf(self, mbfid: int, payload: Any, size: int = 1,
                   tmout: int = TMO_FEVR):
        """Send a message of *size* bytes, blocking while the buffer is full."""
        buffer = self.table.require(mbfid)
        if size <= 0 or size > buffer.max_message_size:
            return E_PAR

        # Direct hand-off to a waiting receiver bypasses the storage.
        receiver = buffer.receive_queue.pop()
        if receiver is not None:
            self.kernel._release_wait(receiver, E_OK, result=(payload, size))
            return E_OK

        if buffer.free_bytes() >= size and not buffer.send_queue:
            self._store(buffer, payload, size)
            return E_OK
        return (yield from self.kernel._wait_here(
            factor=TTW_SMBF,
            object_id=mbfid,
            tmout=tmout,
            queue=buffer.send_queue,
            data={"payload": payload, "size": size},
        ))

    def _store(self, buffer: MessageBuffer, payload: Any, size: int) -> None:
        buffer.messages.append(BufferedMessage(payload, size))
        buffer.used_bytes += size

    def _serve_senders(self, buffer: MessageBuffer) -> None:
        """Admit queued senders while space is available."""
        while buffer.send_queue:
            head = buffer.send_queue.peek()
            assert head is not None
            size = head.data["size"]
            if size > buffer.free_bytes():
                break
            buffer.send_queue.pop()
            self._store(buffer, head.data["payload"], size)
            self.kernel._release_wait(head, E_OK)

    @service(padding=(None, 0))
    def tk_rcv_mbf(self, mbfid: int, tmout: int = TMO_FEVR):
        """Receive the oldest message; returns ``(E_OK, payload, size)``."""
        buffer = self.table.require(mbfid)
        if buffer.messages:
            message = buffer.messages.pop(0)
            buffer.used_bytes -= message.size
            self._serve_senders(buffer)
            return E_OK, message.payload, message.size
        ercd = yield from self.kernel._wait_here(
            factor=TTW_RMBF,
            object_id=mbfid,
            tmout=tmout,
            queue=buffer.receive_queue,
        )
        if ercd != E_OK:
            return ercd, None, 0
        payload, size = self.kernel.tasks.invoking_tcb().last_wait_result
        return E_OK, payload, size

    @service
    def tk_ref_mbf(self, mbfid: int):
        """Reference a message buffer's state."""
        buffer = self.table.require(mbfid)
        return {
            "mbfid": buffer.object_id,
            "name": buffer.name,
            "exinf": buffer.exinf,
            "msgcnt": len(buffer.messages),
            "frbufsz": buffer.free_bytes(),
            "maxmsz": buffer.max_message_size,
            "stsk": buffer.send_queue.waiting_task_ids(),
            "wtsk": buffer.receive_queue.waiting_task_ids(),
        }

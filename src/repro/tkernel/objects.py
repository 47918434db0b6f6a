"""Common infrastructure for kernel objects: the service-call protocol, the
refusal path, object tables and wait queues.

Every service call of every manager is a method decorated with
:func:`service`, the single place where the call protocol lives.  A service
refuses a call by raising :class:`Refused` with the T-Kernel error code, from
its own body or from a shared step: :meth:`ObjectTable.add` (``E_LIMIT``),
:meth:`ObjectTable.require` (``E_NOEXS``), the task manager's ``resolve``
(``E_ID``/``E_NOEXS``) and ``invoking_tcb`` (``E_CTX`` outside a task), and
the kernel's wait protocol (``E_TMOUT`` on a polling call, then ``E_CTX``).
:func:`service` turns the refusal into the call's return value, padded to
the service's result shape.

Every T-Kernel object class (semaphore, event flag, mailbox, ...) owns a
:class:`WaitQueue` of :class:`WaitEntry` records.  The queue ordering is
selected by the object's ``TA_TFIFO`` / ``TA_TPRI`` attribute.  The generic
block/release protocol lives in :class:`repro.tkernel.kernel.TKernelOS`;
objects only decide *when* an entry is released and with which data.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Generic, List, Optional, Tuple, TypeVar, TYPE_CHECKING

from repro.tkernel.errors import E_LIMIT, E_NOEXS
from repro.tkernel.types import TA_TPRI

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.tkernel.task import TaskControlBlock

#: The code flag of a generator function (``inspect.CO_GENERATOR``).
CO_GENERATOR = 0x20


class Refused(Exception):
    """A service call refused with the T-Kernel error code ``code``."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


def service(body: Optional[Callable[..., Any]] = None, *,
            padding: Tuple[Any, ...] = ()) -> Any:
    """Make a manager method a T-Kernel service call named after it.

    The returned method is always a generator (call it with ``yield from``,
    or through ``kernel.call_immediate``).  It enters the call through the
    kernel's ``_svc_enter`` — the per-name count, the ``svc`` enter event,
    dispatch disabling and the annotated ``svc:<name>`` cost — runs *body*
    (delegating to it when *body* itself waits) and always leaves through
    ``_svc_exit``, also when *body* raises ``ThreadExit``.  A
    :class:`Refused` raised in *body* returns its code: as is, or, for a
    service returning a tuple, as ``(code, *padding)`` with the padding the
    service declares as ``@service(padding=...)``.  The manager must hold
    its kernel as ``self.kernel``.
    """
    if body is None:
        return functools.partial(service, padding=padding)
    name = body.__name__
    waits = bool(body.__code__.co_flags & CO_GENERATOR)

    @functools.wraps(body)
    def call(self, *args, **kwargs):
        kernel = self.kernel
        yield from kernel._svc_enter(name)
        try:
            if waits:
                return (yield from body(self, *args, **kwargs))
            return body(self, *args, **kwargs)
        except Refused as refusal:
            return (refusal.code, *padding) if padding else refusal.code
        finally:
            kernel._svc_exit()

    call.service_name = name
    return call


def service_names(manager_class: type) -> List[str]:
    """The names of the :func:`service` methods defined on *manager_class*."""
    return [
        name for name, member in vars(manager_class).items()
        if getattr(member, "service_name", None) == name
    ]


class KernelObject:
    """Base class for every T-Kernel object with an ID and attributes."""

    object_type = "object"

    def __init__(self, object_id: int, name: str, attributes: int = 0, exinf: Any = None):
        self.object_id = object_id
        self.name = name or f"{self.object_type}{object_id}"
        self.attributes = attributes
        self.exinf = exinf


class WaitEntry:
    """One task waiting on a kernel object (or in tk_slp_tsk/tk_dly_tsk)."""

    __slots__ = ("tcb", "factor", "object_id", "data", "release_code",
                 "result", "timeout_handle", "queue")

    def __init__(self, tcb: "TaskControlBlock", factor: int, object_id: int = 0,
                 data: Optional[Dict[str, Any]] = None,
                 queue: Optional["WaitQueue"] = None):
        self.tcb = tcb
        self.factor = factor
        self.object_id = object_id
        #: Extra wait data, e.g. the requested flag pattern/mode or message size.
        self.data: Dict[str, Any] = {} if data is None else data
        #: Filled when the wait is released: the service-call return code.
        self.release_code: Optional[int] = None
        #: Result payload handed to the released task (message, block, pattern...).
        self.result: Any = None
        #: Handle of the timeout registered with the time manager, if any.
        self.timeout_handle: Any = None
        #: The wait queue this entry is linked into (None for tk_slp_tsk/tk_dly_tsk).
        self.queue = queue

    @property
    def priority(self) -> int:
        """Current priority of the waiting task (used by TA_TPRI queues)."""
        return self.tcb.priority


class WaitQueue:
    """A queue of waiting tasks, ordered FIFO or by task priority."""

    def __init__(self, attributes: int = 0):
        self.attributes = attributes
        self._entries: List[WaitEntry] = []

    @property
    def priority_ordered(self) -> bool:
        """Whether the queue is ordered by task priority (TA_TPRI)."""
        return bool(self.attributes & TA_TPRI)

    def enqueue(self, entry: WaitEntry) -> None:
        """Insert *entry* according to the queue's ordering rule."""
        if not self.priority_ordered:
            self._entries.append(entry)
            return
        # Priority order, FIFO among equals: insert before the first entry
        # with a strictly lower urgency (higher numeric priority).
        for index, existing in enumerate(self._entries):
            if existing.priority > entry.priority:
                self._entries.insert(index, entry)
                return
        self._entries.append(entry)

    def remove(self, entry: WaitEntry) -> bool:
        """Remove *entry*; returns whether it was present."""
        try:
            self._entries.remove(entry)
            return True
        except ValueError:
            return False

    def peek(self) -> Optional[WaitEntry]:
        """The entry that would be released next."""
        return self._entries[0] if self._entries else None

    def pop(self) -> Optional[WaitEntry]:
        """Remove and return the next entry to release."""
        return self._entries.pop(0) if self._entries else None

    def entries(self) -> List[WaitEntry]:
        """A copy of the queued entries in release order."""
        return list(self._entries)

    def waiting_task_ids(self) -> List[int]:
        """Identifiers of the queued tasks, in release order."""
        return [entry.tcb.tskid for entry in self._entries]

    def reorder_for_priority_change(self) -> None:
        """Re-sort a TA_TPRI queue after a waiter's priority changed."""
        if self.priority_ordered:
            self._entries.sort(key=lambda entry: entry.priority)

    def __bool__(self) -> bool:
        return bool(self._entries)


T = TypeVar("T", bound=KernelObject)

#: Capacity of each manager's object table (tasks, semaphores, flags, ...).
MAX_OBJECTS = 256
#: Capacity of the cyclic and alarm handler tables.
MAX_HANDLERS = 64


class ObjectTable(Generic[T]):
    """ID-indexed storage for one class of kernel objects.

    Identifiers are small positive integers handed out in order; a deleted
    object's identifier is reused first.
    """

    def __init__(self, max_objects: int = MAX_OBJECTS):
        self.max_objects = max_objects
        self._next = 1
        self._free: List[int] = []
        self._objects: Dict[int, T] = {}

    def add(self, factory: Callable[[int], T]) -> T:
        """Allocate an ID and store ``factory(object_id)``.

        Returns the new object; refuses with ``E_LIMIT`` when full.
        """
        if self._free:
            object_id = self._free.pop(0)
        elif self._next <= self.max_objects:
            object_id = self._next
            self._next += 1
        else:
            raise Refused(E_LIMIT)
        obj = self._objects[object_id] = factory(object_id)
        return obj

    def get(self, object_id: int) -> "Optional[T]":
        """The object with *object_id*, or None."""
        return self._objects.get(object_id)

    def require(self, object_id: int) -> T:
        """The object with *object_id*; refuses with ``E_NOEXS``."""
        obj = self._objects.get(object_id)
        if obj is None:
            raise Refused(E_NOEXS)
        return obj

    def delete(self, object_id: int) -> bool:
        """Remove an object and free its ID; returns whether it existed."""
        if object_id in self._objects:
            del self._objects[object_id]
            self._free.append(object_id)
            return True
        return False

    def all(self) -> List[T]:
        """All live objects ordered by identifier."""
        return [self._objects[oid] for oid in sorted(self._objects)]

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._objects

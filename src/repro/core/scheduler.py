"""External schedulers for the SIM_API library.

Section 4: the library *"interacts directly with external schedulers to
schedule the next T-THREAD to run"*.  The scheduler only manages the pool of
*ready* threads — the running thread is held by :class:`~repro.core.simapi.SimApi`
and is re-inserted into the pool when it is preempted or yields.

Two reference schedulers are provided, matching the two user-defined kernels
the paper built to validate SIM_API coverage:

* :class:`RoundRobinScheduler` — RTK-Spec I,
* :class:`PriorityScheduler` — RTK-Spec II and RTK-Spec TRON
  (priority-based preemptive, FIFO within a priority level, which is the
  μ-ITRON/T-Kernel rule).

SIM_API duck-types its scheduler: both provide ``add_ready``, ``remove``,
``select_next``, ``pop_next``, ``ready_threads`` and ``should_preempt``.

Fast-core contract (PR 3)
-------------------------

:class:`PriorityScheduler` is the dispatch hot path of every kernel model,
so it follows the classic ITRON ready-queue design instead of scanning a
sorted priority map:

* a **ready bitmap** — bit *p* is set exactly while priority level *p* has
  at least one ready thread; the most urgent level (lowest numeric priority)
  is the lowest set bit, found in O(1) with ``(bitmap & -bitmap).bit_length()``,
* **per-level deques** preserving FIFO order within a level (appendleft
  implements the μ-ITRON "preempted task keeps the head" rule),
* a **thread → level map** making ``remove``/``__contains__``/``__len__``
  O(1) — ``remove`` no longer walks every queue, and the map also remembers
  *which* level a thread was enqueued at, so a priority change between
  enqueue and removal cannot strand it.

The observable contract (FIFO fairness within a level, head insertion,
priority-ascending pop order, idempotent ``add_ready``) is pinned by
``tests/core/test_scheduler_invariants.py``, written against the original
implementation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tthread import TThread

#: Priority levels of :class:`PriorityScheduler`: priorities 0..255.
PRIORITY_LEVELS = 256


class RoundRobinScheduler:
    """FIFO scheduler with explicit rotation (RTK-Spec I).

    Threads never preempt each other on readiness; the kernel rotates the
    queue on every time slice by re-inserting the running thread at the tail
    and popping the head.  A membership set backs ``add_ready``'s dedup so
    it does not scan the queue.
    """

    def __init__(self):
        self._queue: "Deque[TThread]" = deque()
        self._members: "Set[TThread]" = set()

    def add_ready(self, thread: "TThread") -> None:
        if thread not in self._members:
            self._members.add(thread)
            self._queue.append(thread)

    def remove(self, thread: "TThread") -> None:
        if thread in self._members:
            self._members.discard(thread)
            self._queue.remove(thread)

    def select_next(self) -> "Optional[TThread]":
        return self._queue[0] if self._queue else None

    def pop_next(self) -> "Optional[TThread]":
        if not self._queue:
            return None
        thread = self._queue.popleft()
        self._members.discard(thread)
        return thread

    def ready_threads(self) -> "List[TThread]":
        return list(self._queue)

    def should_preempt(self, current: "Optional[TThread]", candidate: "TThread") -> bool:
        # Round robin never preempts on readiness; only the time slice rotates.
        return current is None


class PriorityScheduler:
    """Priority-based preemptive scheduler (RTK-Spec II / RTK-Spec TRON).

    Lower numeric priority means higher urgency (μ-ITRON convention, priority
    1 is the highest).  Threads of equal priority are served FIFO.  See the
    module docstring for the O(1) bitmap/deque/level-map layout.
    """

    def __init__(self):
        # Bit p set <=> level p non-empty.  Level deques are created lazily
        # and kept for reuse (a kernel touches a handful of levels).
        self._ready_bitmap = 0
        self._queues: "Dict[int, Deque[TThread]]" = {}
        self._level_of: "Dict[TThread, int]" = {}

    def _queue_for(self, priority: int) -> "Deque[TThread]":
        if not 0 <= priority < PRIORITY_LEVELS:
            raise ValueError(
                f"priority {priority} outside the supported range "
                f"[0, {PRIORITY_LEVELS})"
            )
        queue = self._queues.get(priority)
        if queue is None:
            self._queues[priority] = queue = deque()
        return queue

    def add_ready(self, thread: "TThread") -> None:
        if thread in self._level_of:
            return
        priority = thread.priority
        self._queue_for(priority).append(thread)
        self._level_of[thread] = priority
        self._ready_bitmap |= 1 << priority

    def add_ready_first(self, thread: "TThread") -> None:
        """Insert at the head of its priority level.

        Used when a preempted task must keep its position at the head of the
        ready queue of its priority (μ-ITRON dispatching rule).
        """
        if thread in self._level_of:
            return
        priority = thread.priority
        self._queue_for(priority).appendleft(thread)
        self._level_of[thread] = priority
        self._ready_bitmap |= 1 << priority

    def remove(self, thread: "TThread") -> None:
        level = self._level_of.pop(thread, None)
        if level is None:
            return
        queue = self._queues[level]
        queue.remove(thread)
        if not queue:
            self._ready_bitmap &= ~(1 << level)

    def select_next(self) -> "Optional[TThread]":
        bitmap = self._ready_bitmap
        if not bitmap:
            return None
        # Lowest set bit == most urgent non-empty level.
        return self._queues[(bitmap & -bitmap).bit_length() - 1][0]

    def pop_next(self) -> "Optional[TThread]":
        bitmap = self._ready_bitmap
        if not bitmap:
            return None
        level = (bitmap & -bitmap).bit_length() - 1
        queue = self._queues[level]
        thread = queue.popleft()
        del self._level_of[thread]
        if not queue:
            self._ready_bitmap = bitmap & ~(1 << level)
        return thread

    def ready_threads(self) -> "List[TThread]":
        threads: "List[TThread]" = []
        bitmap = self._ready_bitmap
        while bitmap:
            level_bit = bitmap & -bitmap
            threads.extend(self._queues[level_bit.bit_length() - 1])
            bitmap ^= level_bit
        return threads

    def should_preempt(self, current: "Optional[TThread]", candidate: "TThread") -> bool:
        if current is None:
            return True
        return candidate.priority < current.priority

    def requeue_for_priority_change(self, thread: "TThread", new_priority: int) -> None:
        """Move a ready thread to the tail of a new priority level."""
        if not 0 <= new_priority < PRIORITY_LEVELS:
            raise ValueError(
                f"priority {new_priority} outside the supported range "
                f"[0, {PRIORITY_LEVELS})"
            )
        self.remove(thread)
        thread.priority = new_priority
        self.add_ready(thread)

    def __contains__(self, thread: "TThread") -> bool:
        return thread in self._level_of

    def __len__(self) -> int:
        return len(self._level_of)

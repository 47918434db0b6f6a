"""SIM_HashTB — the thread hash table of the SIM_API library.

Section 4 of the paper: *"The library contains a Thread hash table
(SIM_HashTB) that keeps a record on every T-THREAD created upon startup and
gets updated whenever a T-THREAD changes its state."*

The table maps thread identifiers to their T-THREADs and keeps thread
names unique.  The "update on every state change" is the thread's own
``state`` attribute, read live through the table's entries; the
time-stamped history of dispatches, preemptions and sleeps is the
``sched`` event stream, not a journal here.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tthread import TThread


class SimHashTB:
    """Registry of every T-THREAD known to the SIM_API library."""

    def __init__(self):
        self._by_id: "Dict[int, TThread]" = {}
        self._by_name: "Dict[str, TThread]" = {}

    # -- registration ----------------------------------------------------
    def register(self, thread: "TThread") -> None:
        """Record a newly created T-THREAD."""
        if thread.tid in self._by_id:
            raise KeyError(f"thread id {thread.tid} already registered")
        if thread.name in self._by_name:
            raise KeyError(f"thread name {thread.name!r} already registered")
        self._by_id[thread.tid] = thread
        self._by_name[thread.name] = thread

    def unregister(self, thread: "TThread") -> None:
        """Remove a T-THREAD (used when a task is deleted)."""
        self._by_id.pop(thread.tid, None)
        self._by_name.pop(thread.name, None)

    # -- lookup -----------------------------------------------------------
    def get(self, tid: int) -> "TThread":
        """Look up a thread by identifier."""
        try:
            return self._by_id[tid]
        except KeyError:
            raise KeyError(f"no T-THREAD with id {tid}") from None

    def __contains__(self, tid: int) -> bool:
        return tid in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    def all_threads(self) -> "List[TThread]":
        """All registered threads, ordered by identifier."""
        return [self._by_id[tid] for tid in sorted(self._by_id)]

"""Unit tests for wait queues and the object table."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tkernel.errors import E_LIMIT, E_NOEXS
from repro.tkernel.objects import KernelObject, ObjectTable, Refused, WaitEntry, WaitQueue
from repro.tkernel.types import TA_TFIFO, TA_TPRI


class FakeTCB:
    """Minimal stand-in for a TaskControlBlock in queue tests."""

    def __init__(self, tskid, priority):
        self.tskid = tskid
        self.priority = priority
        self.name = f"task{tskid}"


class TestWaitQueue:
    def test_fifo_order(self):
        queue = WaitQueue(TA_TFIFO)
        for tskid, priority in [(1, 5), (2, 1), (3, 9)]:
            queue.enqueue(WaitEntry(FakeTCB(tskid, priority), factor=1))
        assert queue.waiting_task_ids() == [1, 2, 3]

    def test_priority_order(self):
        queue = WaitQueue(TA_TPRI)
        for tskid, priority in [(1, 5), (2, 1), (3, 9), (4, 1)]:
            queue.enqueue(WaitEntry(FakeTCB(tskid, priority), factor=1))
        # Priority 1 first (FIFO among equals), then 5, then 9.
        assert queue.waiting_task_ids() == [2, 4, 1, 3]

    def test_remove(self):
        queue = WaitQueue()
        entry = WaitEntry(FakeTCB(7, 3), factor=1)
        queue.enqueue(entry)
        assert queue.remove(entry)
        assert not queue.remove(entry)
        assert queue.waiting_task_ids() == []

    def test_pop_returns_in_release_order(self):
        queue = WaitQueue(TA_TPRI)
        queue.enqueue(WaitEntry(FakeTCB(1, 10), factor=1))
        queue.enqueue(WaitEntry(FakeTCB(2, 2), factor=1))
        popped = queue.pop()
        assert popped is not None and popped.tcb.tskid == 2

    def test_reorder_after_priority_change(self):
        queue = WaitQueue(TA_TPRI)
        low = FakeTCB(1, 20)
        high = FakeTCB(2, 10)
        queue.enqueue(WaitEntry(low, factor=1))
        queue.enqueue(WaitEntry(high, factor=1))
        assert queue.waiting_task_ids() == [2, 1]
        low.priority = 1
        queue.reorder_for_priority_change()
        assert queue.waiting_task_ids() == [1, 2]

    @given(st.lists(st.tuples(st.integers(1, 50), st.integers(1, 140)), max_size=40))
    def test_priority_queue_is_sorted(self, tasks):
        queue = WaitQueue(TA_TPRI)
        for index, (tskid, priority) in enumerate(tasks):
            queue.enqueue(WaitEntry(FakeTCB(index, priority), factor=1))
        priorities = [entry.priority for entry in queue.entries()]
        assert priorities == sorted(priorities)


def thing(object_id):
    return KernelObject(object_id, "thing")


def refusal_code(call, *args):
    with pytest.raises(Refused) as refused:
        call(*args)
    return refused.value.code


class TestObjectTable:
    def test_ids_are_sequential(self):
        table = ObjectTable()
        assert [table.add(thing).object_id for _ in range(3)] == [1, 2, 3]

    def test_released_ids_are_reused(self):
        table = ObjectTable()
        first = table.add(thing).object_id
        table.add(thing)
        table.delete(first)
        assert table.add(thing).object_id == first

    def test_exhaustion_refuses_with_e_limit(self):
        table = ObjectTable(max_objects=2)
        table.add(thing)
        table.add(thing)
        assert refusal_code(table.add, thing) == E_LIMIT

    def test_live_count(self):
        table = ObjectTable()
        a = table.add(thing).object_id
        table.add(thing)
        table.delete(a)
        assert len(table) == 1

    @given(st.lists(st.booleans(), max_size=60))
    def test_never_hands_out_duplicate_live_ids(self, operations):
        table = ObjectTable(max_objects=30)
        live = set()
        for allocate in operations:
            if allocate:
                try:
                    new_id = table.add(thing).object_id
                except Refused as refusal:
                    assert refusal.code == E_LIMIT and len(live) == 30
                    continue
                assert new_id not in live
                live.add(new_id)
            elif live:
                victim = min(live)
                live.remove(victim)
                table.delete(victim)

    def test_add_and_require(self):
        table = ObjectTable()
        obj = table.add(thing)
        assert table.require(obj.object_id) is obj

    def test_require_missing_returns_e_noexs(self):
        table = ObjectTable()
        assert refusal_code(table.require, 99) == E_NOEXS

    def test_delete_frees_id_for_reuse(self):
        table = ObjectTable()
        obj = table.add(lambda oid: KernelObject(oid, "thing"))
        table.delete(obj.object_id)
        replacement = table.add(lambda oid: KernelObject(oid, "other"))
        assert replacement.object_id == obj.object_id

    def test_full_table_returns_e_limit(self):
        table = ObjectTable(max_objects=1)
        table.add(lambda oid: KernelObject(oid, "a"))
        assert refusal_code(table.add, lambda oid: KernelObject(oid, "b")) == E_LIMIT

    def test_all_ordered_by_id(self):
        table = ObjectTable()
        for name in "abc":
            table.add(lambda oid, name=name: KernelObject(oid, name))
        assert [o.name for o in table.all()] == ["a", "b", "c"]

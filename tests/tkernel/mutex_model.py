"""A pure-python reference model of T-Kernel mutex priority control.

The model keeps only what the strict priority-control rule reads: each
task's base priority, which task holds which mutex, and which task waits
where.  After every operation it derives every task's current priority
from scratch, as the fixed point of the rule (stated in
:mod:`repro.tkernel.mutex`), so it shares nothing with how the kernel walks
its wait chains.  Each mutex is ``("inherit", None)`` or ``("ceiling",
ceiling)``; both queue waiters by current priority, FIFO among equals.

A wait chain must not close into a cycle: :meth:`MutexModel.closes_cycle`
tells whether a lock would deadlock, and the model does not define the
priorities a deadlock gives.
"""

from repro.tkernel import E_DLT, E_ILUSE, E_OBJ, E_OK, E_RLWAI, E_TMOUT


class MutexModel:
    def __init__(self, bases, mutexes):
        self.initial = dict(bases)
        self.base = dict(bases)
        self.current = dict(bases)
        self.mutexes = dict(mutexes)
        self.owner = {mid: None for mid in mutexes}
        self.queue = {mid: [] for mid in mutexes}
        #: Waiting task → (mutex, whether its wait has a finite timeout).
        self.waits = {}
        #: Each task's last lock/unlock code; None while it waits or after
        #: it was terminated.
        self.code = {tid: None for tid in bases}

    def _ceilings(self, mids):
        return [self.mutexes[mid][1] for mid in mids if self.mutexes[mid][0] == "ceiling"]

    def closes_cycle(self, tid, mid):
        owner = self.owner[mid]
        while owner is not None and owner != tid:
            owner = self.owner[self.waits[owner][0]] if owner in self.waits else None
        return owner == tid

    def lock(self, tid, mid, timed):
        if self.owner[mid] == tid or any(self.base[tid] < c for c in self._ceilings([mid])):
            self.code[tid] = E_ILUSE
        elif self.owner[mid] is None:
            self.owner[mid] = tid
            self.code[tid] = E_OK
        else:
            queue = self.queue[mid]
            queue.insert(next((i for i, w in enumerate(queue)
                               if self.current[w] > self.current[tid]), len(queue)), tid)
            self.waits[tid] = (mid, timed)
            self.code[tid] = None
        self._derive()

    def unlock(self, tid, mid):
        if self.owner[mid] != tid:
            self.code[tid] = E_ILUSE
            return
        self.code[tid] = E_OK
        self._hand_over(mid)
        self._derive()

    def timeout(self):
        for tid in [tid for tid, (_, timed) in self.waits.items() if timed]:
            self._release(tid, E_TMOUT)
        self._derive()

    def rel_wai(self, tid):
        if tid not in self.waits:
            return E_OBJ
        self._release(tid, E_RLWAI)
        self._derive()
        return E_OK

    def ter_tsk(self, tid):
        """Terminate *tid* and start it again at its initial priority."""
        for mid in [mid for mid, owner in self.owner.items() if owner == tid]:
            self._hand_over(mid)
        if tid in self.waits:
            self._release(tid, None)
        self.base[tid] = self.initial[tid]
        self.code[tid] = None
        self._derive()
        return E_OK

    def chg_pri(self, tid, priority):
        mids = [mid for mid, owner in self.owner.items() if owner == tid]
        if tid in self.waits:
            mids.append(self.waits[tid][0])
        if any(priority < c for c in self._ceilings(mids)):
            return E_ILUSE
        self.base[tid] = priority
        self._derive()
        return E_OK

    def del_mtx(self, mid):
        """Delete *mid* and create it again, free, with the same attributes."""
        self.owner[mid] = None
        for tid in list(self.queue[mid]):
            self._release(tid, E_DLT)
        self._derive()
        return E_OK

    def _hand_over(self, mid):
        queue = self.queue[mid]
        self.owner[mid] = queue[0] if queue else None
        if queue:
            self._release(queue[0], E_OK)

    def _release(self, tid, code):
        mid, _ = self.waits.pop(tid)
        self.queue[mid].remove(tid)
        self.code[tid] = code

    def _derive(self):
        current = dict(self.base)
        changed = True
        while changed:
            changed = False
            for tid in current:
                held = [mid for mid, owner in self.owner.items() if owner == tid]
                inherited = [current[w] for mid in held if self.mutexes[mid][0] == "inherit"
                             for w in self.queue[mid]]
                priority = min([self.base[tid], *self._ceilings(held), *inherited])
                changed |= priority != current[tid]
                current[tid] = priority
        self.current = current
        for queue in self.queue.values():
            queue.sort(key=current.__getitem__)

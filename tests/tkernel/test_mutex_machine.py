"""The T-Kernel mutex model against :mod:`tests.tkernel.mutex_model`.

A hypothesis state machine drives four tasks over three ``TA_INHERIT`` and
two ``TA_CEILING`` mutexes with lock, unlock, timeout, ``tk_rel_wai``,
``tk_ter_tsk``, ``tk_chg_pri`` and ``tk_del_mtx``.  Each run starts from a
drawn wait chain, so priorities have something to propagate through.
Each task sleeps between commands; a command wakes it, it makes its one
lock or unlock call and records the code.  The other services are called
from outside any task.  After every step every task's ``(tskpri,
tskbpri)`` and last code, and every mutex's owner and wait queue, must
match the model.
"""

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from repro.sysc import SimTime, Simulator
from repro.tkernel import TA_CEILING, TA_INHERIT, TMO_FEVR, TKernelOS
from tests.tkernel.mutex_model import MutexModel

#: Base priorities of the four tasks (two share a level).
BASES = (10, 20, 20, 30)
#: (attribute, ceiling) of each mutex; a wait chain uses them in this order.
MUTEXES = ((TA_INHERIT, 1), (TA_INHERIT, 1), (TA_INHERIT, 1),
           (TA_CEILING, 5), (TA_CEILING, 15))
#: Base priorities tk_chg_pri draws from (3 is above both ceilings).
PRIORITIES = (3, 8, 10, 15, 20, 25, 30)
#: Simulated time one step runs for; every command completes within it.
STEP_MS = 5
MAX_STEPS = 30
#: A timed lock's timeout: longer than a whole run of steps.
TIMEOUT_MS = 200
assert MAX_STEPS * STEP_MS < TIMEOUT_MS


class MutexMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.commands = {}
        self.results = {}
        self.simulator = Simulator("mutex-machine")
        self.kernel = TKernelOS(self.simulator, user_main=self._setup)
        self._run(2 * STEP_MS)
        self.model = MutexModel(
            dict(zip(self.tasks, BASES)),
            {mtxid: ("ceiling", ceil) if attr == TA_CEILING else ("inherit", None)
             for mtxid, (attr, ceil) in zip(self.mutexes, MUTEXES)},
        )

    def _setup(self, kernel):
        self.mutexes = []
        for attr, ceil in MUTEXES:
            self.mutexes.append((yield from kernel.tk_cre_mtx(mtxatr=attr, ceilpri=ceil)))
        self.tasks = []
        for base in BASES:
            tskid = yield from kernel.tk_cre_tsk(self._worker, itskpri=base)
            self.tasks.append(tskid)
            self.results[tskid] = None
            yield from kernel.tk_sta_tsk(tskid, tskid)

    def _worker(self, tskid, exinf):
        kernel = self.kernel
        while True:
            yield from kernel.tk_slp_tsk(TMO_FEVR)
            op, mtxid, tmout = self.commands[tskid]
            if op == "lock":
                self.results[tskid] = yield from kernel.tk_loc_mtx(mtxid, tmout)
            else:
                self.results[tskid] = yield from kernel.tk_unl_mtx(mtxid)

    def _call(self, service, *args):
        return self.kernel.call_immediate(getattr(self.kernel, service)(*args))

    def _run(self, ms=STEP_MS):
        self.simulator.run(SimTime.ms(ms))

    def _command(self, tskid, command):
        self.commands[tskid] = command
        self.results[tskid] = None
        self._call("tk_wup_tsk", tskid)
        self._run()

    def _lock(self, tskid, mtxid, timed):
        if self.model.closes_cycle(tskid, mtxid):
            return  # a deadlock: the rule does not define its priorities
        self._command(tskid, ("lock", mtxid, TIMEOUT_MS if timed else TMO_FEVR))
        self.model.lock(tskid, mtxid, timed)

    def _held(self):
        """(owner, mutex) pairs whose owner is free to unlock."""
        return [(owner, mtxid) for mtxid, owner in self.model.owner.items()
                if owner is not None and owner not in self.model.waits]

    @initialize(order=st.permutations(range(len(BASES))),
                length=st.integers(2, len(BASES)), timed=st.booleans())
    def chain(self, order, length, timed):
        """The i-th task of *order* locks the i-th mutex, then each of the
        first *length* tasks but the first waits on its predecessor's."""
        links = [(self.tasks[t], self.mutexes[i]) for i, t in enumerate(order[:length])]
        for tskid, mtxid in links:
            self._lock(tskid, mtxid, False)
        for (_, mtxid), (tskid, _) in zip(links, links[1:]):
            self._lock(tskid, mtxid, timed)

    @precondition(lambda self: len(self.model.waits) < len(self.tasks))
    @rule(data=st.data(), index=st.integers(0, len(MUTEXES) - 1), timed=st.booleans())
    def lock(self, data, index, timed):
        idle = [tskid for tskid in self.tasks if tskid not in self.model.waits]
        self._lock(data.draw(st.sampled_from(idle)), self.mutexes[index], timed)

    @precondition(lambda self: self._held())
    @rule(data=st.data())
    def unlock(self, data):
        tskid, mtxid = data.draw(st.sampled_from(self._held()))
        self._command(tskid, ("unlock", mtxid, None))
        self.model.unlock(tskid, mtxid)

    @precondition(lambda self: any(timed for _, timed in self.model.waits.values()))
    @rule()
    def timeout(self):
        self._run(TIMEOUT_MS + STEP_MS)
        self.model.timeout()

    @precondition(lambda self: self.model.waits)
    @rule(data=st.data())
    def rel_wai(self, data):
        tskid = data.draw(st.sampled_from(sorted(self.model.waits)))
        assert self._call("tk_rel_wai", tskid) == self.model.rel_wai(tskid)
        self._run()

    @rule(index=st.integers(0, len(BASES) - 1))
    def ter_tsk(self, index):
        tskid = self.tasks[index]
        assert self._call("tk_ter_tsk", tskid) == self.model.ter_tsk(tskid)
        self.results[tskid] = None
        self._call("tk_sta_tsk", tskid, tskid)
        self._run()

    @rule(index=st.integers(0, len(BASES) - 1), priority=st.sampled_from(PRIORITIES))
    def chg_pri(self, index, priority):
        tskid = self.tasks[index]
        assert self._call("tk_chg_pri", tskid, priority) == self.model.chg_pri(tskid, priority)
        self._run()

    @rule(index=st.integers(0, len(MUTEXES) - 1))
    def del_mtx(self, index):
        mtxid = self.mutexes[index]
        assert self._call("tk_del_mtx", mtxid) == self.model.del_mtx(mtxid)
        attr, ceil = MUTEXES[index]
        assert self._call("tk_cre_mtx", "", attr, ceil) == mtxid
        self._run()

    @invariant()
    def matches_the_model(self):
        assert self.kernel.api.running is None  # the step ran to its end
        model = self.model
        for tskid in self.tasks:
            ref = self._call("tk_ref_tsk", tskid)
            assert (ref["tskpri"], ref["tskbpri"]) == (model.current[tskid], model.base[tskid]), tskid
        assert self.results == model.code
        for mtxid in self.mutexes:
            ref = self._call("tk_ref_mtx", mtxid)
            assert ref["htsk"] == (model.owner[mtxid] or 0), mtxid
            assert ref["wtsk"] == model.queue[mtxid], mtxid


TestMutexMachine = MutexMachine.TestCase
TestMutexMachine.settings = settings(
    max_examples=60, stateful_step_count=MAX_STEPS, deadline=None,
    derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow],
)

"""Synchronized Petri-net bookkeeping for the T-THREAD model.

Fig. 2 of the paper describes a T-THREAD as *"a cyclic object of atomic
transitions T with a single token K marking the state of the T-THREAD"*.
Transitions fire on kernel events, a firing sequence ``S`` carries an
execution-time and execution-energy model, and a characteristic vector
``S̄`` counts how often each transition fired.  Consumed execution time (CET)
and energy (CEE) are the accumulation of ETM/EEM over the simulation cycles.

The firing sequence ``S`` itself is the ``sched`` event stream: every timed
firing is published there as an ``exec`` event carrying its thread,
duration, context and energy.  The token therefore keeps only what the
paper accumulates, in memory bounded by the number of distinct transitions:

* :class:`Transition` — a named transition with the run event that fires it
  and the execution context it belongs to,
* :class:`PetriToken` — the single token of a T-THREAD: its current place,
  and per transition its ``S̄`` count together with that transition's CET
  and CEE, plus the CET/CEE totals.  Per-context splits are derived from the
  per-transition accumulators on read.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Any, Callable, Dict, List

from repro.core.events import ExecutionContext, RunEvent
from repro.sysc.time import SimTime


class Transition:
    """An atomic transition of the T-THREAD Petri net.

    Its value is its ``key``: a token keys its accumulators by it, so
    firings of two transitions with equal name, event and context share
    one S̄ entry.
    """

    __slots__ = ("name", "event", "context", "key")

    def __init__(self, name: str, event: RunEvent, context: ExecutionContext):
        self.name = name
        self.event = event
        self.context = context
        #: The value as plain strings: hashing it runs in C, where an enum
        #: member's hash is a Python-level call per firing.
        self.key = (name, event._name_, context._name_)


#: The source transition ``To`` associated with the startup event ``Es``.
SOURCE_TRANSITION = Transition("To", RunEvent.STARTUP, ExecutionContext.STARTUP)


class PetriToken:
    """The single token ``K`` marking a T-THREAD's state.

    The token moves from place to place as transitions fire; it gathers
    execution time/energy statistics as it propagates (paper, section 4:
    "a token gathers execution time/energy statistics as it propagates
    through different T-THREADs").
    """

    def __init__(self, owner_name: str):
        self.owner_name = owner_name
        self.place = 0
        self.cycle_count = 0
        # One ``[count, cet_ns, cee_nj, transition]`` accumulator per
        # transition value, keyed by ``Transition.key``: a firing costs one
        # dict lookup, and S̄ and the per-context splits are derived on read.
        # The totals accumulate separately, in firing order, so they equal
        # the ``sched`` stream's sums exactly.
        self._by_transition: Dict[tuple, List[Any]] = {}
        self._cet_ns = 0
        self._cee_nj = 0.0

    # -- firing ------------------------------------------------------------
    def fire(
        self, transition: Transition, duration_ns: int = 0, energy_nj: float = 0.0
    ) -> None:
        """Fire *transition*, move the token and accumulate ETM/EEM."""
        self.place += 1
        accumulator = self._by_transition.get(transition.key)
        if accumulator is None:
            self._by_transition[transition.key] = [
                1, duration_ns, energy_nj, transition]
        else:
            accumulator[0] += 1
            accumulator[1] += duration_ns
            accumulator[2] += energy_nj
        self._cet_ns += duration_ns
        self._cee_nj += energy_nj

    def complete_cycle(self) -> None:
        """Mark the completion of one cyclic execution of the T-THREAD."""
        self.cycle_count += 1

    # -- the characteristic vector -------------------------------------------
    @property
    def firings(self) -> Dict[Transition, int]:
        """S̄: how many times each transition fired."""
        return {
            accumulator[3]: accumulator[0]
            for accumulator in self._by_transition.values()
        }

    def _count_by(self, key: Callable[[Transition], str]) -> Dict[str, int]:
        counts: Counter = Counter()
        for transition, count in self.firings.items():
            counts[key(transition)] += count
        return dict(counts)

    @property
    def characteristic_vector(self) -> Dict[str, int]:
        """Number of firings per transition name (the paper's S̄)."""
        return self._count_by(attrgetter("name"))

    @property
    def event_vector(self) -> Dict[str, int]:
        """Number of firings per run-event symbol."""
        return self._count_by(attrgetter("event.symbol"))

    @property
    def context_vector(self) -> Dict[str, int]:
        """Number of firings per execution context."""
        return self._count_by(attrgetter("context.value"))

    # -- accumulated statistics ----------------------------------------------
    @property
    def consumed_execution_time(self) -> SimTime:
        """CET(S | T-THREAD): accumulated execution time."""
        return SimTime(self._cet_ns)  # simtime-boundary

    @property
    def consumed_execution_energy_nj(self) -> float:
        """CEE(S | T-THREAD): accumulated execution energy in nanojoules."""
        return self._cee_nj

    @property
    def consumed_execution_energy_mj(self) -> float:
        """CEE in millijoules (the unit used by the battery widget)."""
        return self._cee_nj * 1e-6

    def _sum_by_context(self, index: int) -> Dict[ExecutionContext, Any]:
        """Accumulator column *index* summed per context, in first-firing order."""
        sums: Dict[ExecutionContext, Any] = {}
        for accumulator in self._by_transition.values():
            context = accumulator[3].context
            if context in sums:
                sums[context] += accumulator[index]
            else:
                sums[context] = accumulator[index]
        return sums

    def cet_by_context(self) -> Dict[ExecutionContext, SimTime]:
        """CET broken down per execution context."""
        return {
            context: SimTime(ns)  # simtime-boundary
            for context, ns in self._sum_by_context(1).items()
        }

    def cee_by_context(self) -> Dict[ExecutionContext, float]:
        """CEE (nJ) broken down per execution context."""
        return self._sum_by_context(2)

    def marking(self) -> int:
        """The current marking (place index reached by the token)."""
        return self.place
